// Package para provides the thread-pool substrate used by both schedulers:
// a fixed set of workers, a reusable barrier, and parallel-for loops with
// deterministic-output chunked partitioning (the `doall` of Figure 3).
package para

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultThreads returns the default worker count: GOMAXPROCS.
func DefaultThreads() int { return runtime.GOMAXPROCS(0) }

// For runs body(tid, i) for every i in [0, n) using nthreads goroutines.
// Iterations are distributed dynamically in chunks; the assignment of
// iterations to threads is non-deterministic but every iteration runs
// exactly once. Deterministic schedulers may use it freely for phases whose
// outcome is order-independent.
func For(nthreads, n int, body func(tid, i int)) {
	ForChunked(nthreads, n, 64, body)
}

// ForChunked is For with an explicit chunk size.
func ForChunked(nthreads, n, chunk int, body func(tid, i int)) {
	if n == 0 {
		return
	}
	if nthreads <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return
	}
	if chunk < 1 {
		chunk = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := nthreads
	if workers > n {
		workers = n
	}
	wg.Add(workers)
	for t := 0; t < workers; t++ {
		//detlint:ignore goroutineorder fork-join: every index runs exactly once and results are stored into index-addressed slots; wg.Wait joins before any result is read
		go func(tid int) {
			defer wg.Done()
			for {
				start := int(next.Add(int64(chunk))) - chunk
				if start >= n {
					return
				}
				end := start + chunk
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					body(tid, i)
				}
			}
		}(t)
	}
	wg.Wait()
}

// BlockRange returns the half-open range [lo, hi) of thread tid in a static
// block partition of n items over `workers` threads: the first n%workers
// threads receive one extra item. The boundaries are a pure function of
// (n, workers, tid), which is what makes a phase whose output slot depends
// only on its index deterministic under this partition. tid >= n yields an
// empty range.
func BlockRange(n, workers, tid int) (lo, hi int) {
	if workers <= 1 {
		if tid == 0 {
			return 0, n
		}
		return n, n
	}
	per := n / workers
	rem := n % workers
	lo = tid * per
	if tid < rem {
		lo += tid
	} else {
		lo += rem
	}
	hi = lo + per
	if tid < rem {
		hi++
	}
	return lo, hi
}

// ForBlocked runs body(tid, lo, hi) over a static block partition of [0, n):
// thread tid receives one contiguous range (see BlockRange). Useful when
// per-thread sequential order within a block matters or when the body
// amortizes work across its whole range.
func ForBlocked(nthreads, n int, body func(tid, lo, hi int)) {
	if n == 0 {
		return
	}
	if nthreads <= 1 {
		body(0, 0, n)
		return
	}
	workers := nthreads
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for t := 0; t < workers; t++ {
		lo, hi := BlockRange(n, workers, t)
		//detlint:ignore goroutineorder fork-join over a static block partition: block boundaries are a pure function of (nthreads, n), and wg.Wait joins before results are read
		go func(tid, lo, hi int) {
			defer wg.Done()
			body(tid, lo, hi)
		}(t, lo, hi)
	}
	wg.Wait()
}

// Run spawns nthreads workers running body(tid) and waits for all of them.
// This is the backbone of the persistent-worker scheduler loops.
func Run(nthreads int, body func(tid int)) {
	if nthreads <= 1 {
		body(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(nthreads)
	for t := 0; t < nthreads; t++ {
		//detlint:ignore goroutineorder persistent-worker launch: workers are identified by tid and the schedulers built on Run order all cross-thread merges by round barrier and task id
		go func(tid int) {
			defer wg.Done()
			body(tid)
		}(t)
	}
	wg.Wait()
}

// Barrier is a reusable sense-reversing barrier for a fixed number of
// parties. It underlies the `barrier` statements in Figure 2. The word every
// arrival writes, the word every waiter polls and the slow-path state each
// have a cache line of their own.
type Barrier struct {
	parties int32
	oversub atomic.Bool // fewer processors than parties: see Resample
	_       [128 - 8]byte
	count   atomic.Int32
	_       [128 - 4]byte
	sense   atomic.Uint64 // phases completed: also the crossing count
	_       [128 - 8]byte
	mu      sync.Mutex
	cond    sync.Cond // by value: no allocation beyond the Barrier itself
	parks   atomic.Uint64
	waitNS  atomic.Int64
}

// spinBudget is how long a waiter polls before it parks; every spinCheck
// polls it reads the clock and yields, so work queued on its P runs. Longer
// than a phase plus a wake-up (a fine-grained DIG phase is ~50 µs per worker;
// waking a parked peer costs tens of µs, over 100 on a cold vCPU, and a
// budget below that sum makes each park cause the next), far shorter than an
// OS timeslice, so a callback of milliseconds costs each waiter one budget.
// Wall time is flat from 100 to 500 µs (EXPERIMENTS.md H15): not a knob.
const (
	spinBudget = int64(200 * time.Microsecond)
	spinCheck  = 256
)

//detlint:ignore wallclock the anchor of monotime
var clockBase = time.Now()

// monotime is the barrier's clock: it bounds and measures waiting.
//
//detlint:ignore wallclock pure synchronisation: timing decides only how a waiter waits, never which callback runs, what it computes, or any committed byte
func monotime() int64 { return int64(time.Since(clockBase)) }

// NewBarrier returns a barrier for parties participants.
func NewBarrier(parties int) *Barrier {
	b := &Barrier{parties: int32(parties)}
	b.cond.L = &b.mu
	b.Resample()
	return b
}

// Resample re-reads whether parties outnumber processors; if so waiters park
// at once, because a spinner would hold the P its straggler needs.
// GOMAXPROCS(0) takes the scheduler lock, so this runs at construction, at
// each checkout of a retained barrier and on the park path, not per crossing.
func (b *Barrier) Resample() {
	p := int(b.parties)
	b.oversub.Store(runtime.GOMAXPROCS(0) < p || runtime.NumCPU() < p)
}

// Stats returns lifetime counters: phases completed, waits that took the
// park path, and nanoseconds waited by waits slow enough to read the clock.
func (b *Barrier) Stats() (crossings, parks uint64, waitNS int64) {
	return b.sense.Load(), b.parks.Load(), b.waitNS.Load()
}

// Wait blocks until all parties have called Wait for the current phase.
// The last arriving party releases the others.
func (b *Barrier) Wait() { b.WaitDo(nil) }

// WaitDo is Wait with a fused serial section: the last party to arrive runs
// fn (if non-nil) before releasing the others. Every other party is blocked
// inside the barrier while fn runs, so fn has exclusive access to all state
// shared by the parties — it is a serial section that costs one barrier
// crossing instead of the two a "barrier; worker 0 works; barrier" pattern
// pays. All parties of one phase must pass equivalent callbacks (only the
// last arriver's runs, and which party arrives last is not deterministic);
// state written by fn is visible to every party after release via the
// release store of the barrier sense. A waiter polls the sense for at most
// spinBudget, then parks on the condition variable.
func (b *Barrier) WaitDo(fn func()) {
	if b.parties <= 1 {
		if fn != nil {
			fn()
		}
		return
	}
	sense := b.sense.Load()
	if b.count.Add(1) == b.parties {
		if fn != nil {
			fn()
		}
		b.count.Store(0)
		b.sense.Store(sense + 1)
		// Pairing the store with a lock/unlock of mu guarantees any
		// party that checked the sense under mu is already in cond.Wait
		// and will receive the broadcast — no missed wakeups.
		b.mu.Lock()
		//lint:ignore SA2001 empty critical section orders sense store before broadcast
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	var start int64 // first clock read; 0 until the wait proves slow
	for polls := 1; !b.oversub.Load(); polls++ {
		if b.sense.Load() != sense {
			if start != 0 {
				b.waitNS.Add(monotime() - start)
			}
			return
		}
		if polls%spinCheck == 0 {
			now := monotime()
			if start == 0 {
				start = now
			}
			if now-start >= spinBudget {
				break
			}
			runtime.Gosched()
		}
	}
	if start == 0 {
		start = monotime()
	}
	b.parks.Add(1)
	b.Resample()
	b.mu.Lock()
	for b.sense.Load() == sense {
		b.cond.Wait()
	}
	b.mu.Unlock()
	b.waitNS.Add(monotime() - start)
}
