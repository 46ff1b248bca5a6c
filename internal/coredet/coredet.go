// Package coredet reimplements the scheduling discipline of CoreDet-class
// deterministic thread schedulers (CoreDet, Kendo, DThreads — paper §5.2,
// §6): threads execute fixed-size quanta of logical instructions in
// parallel; every synchronization operation (lock, atomic update, barrier)
// is deferred to a serial phase at the quantum boundary, where pending
// operations execute one thread at a time in deterministic round-robin
// order.
//
// CoreDet obtains the instruction counts by compiler instrumentation; here
// programs report logical work explicitly via Thread.Work, which preserves
// the scheduling behaviour — the source of the Figure 6 slowdowns — without
// an instrumenting compiler. With Enabled=false the same API degrades to
// plain Go synchronization, giving the "without CoreDet" baseline of the
// same program text.
package coredet

import (
	"sync"
	"sync/atomic"
)

// DefaultQuantum is the default quantum length in logical instructions.
// CoreDet's evaluation uses quanta in the 1k-100k range; performance — and,
// as the paper notes pointedly, program output — depends on this tunable.
const DefaultQuantum = 50_000

// Runtime coordinates a set of deterministically scheduled threads.
type Runtime struct {
	// Enabled selects deterministic scheduling; false = plain pthreads.
	enabled bool
	quantum int64

	mu      sync.Mutex
	cond    *sync.Cond
	live    int
	waiting int
	round   uint64

	threads []*Thread

	syncOps atomic.Uint64
	quanta  atomic.Uint64
}

// New returns a runtime. quantum <= 0 selects DefaultQuantum.
func New(enabled bool, quantum int64) *Runtime {
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	rt := &Runtime{enabled: enabled, quantum: quantum}
	rt.cond = sync.NewCond(&rt.mu)
	return rt
}

// SyncOps returns the number of synchronization operations performed.
func (rt *Runtime) SyncOps() uint64 { return rt.syncOps.Load() }

// Quanta returns the number of serialization rounds executed.
func (rt *Runtime) Quanta() uint64 { return rt.quanta.Load() }

// Thread is one deterministically scheduled thread.
type Thread struct {
	rt    *Runtime
	id    int
	count int64
	// pending is the serialized operation this thread waits to execute;
	// it returns false to remain pending into the next round (blocked).
	pending func() bool
	// parked is true while the thread sits at the quantum boundary
	// (guarded by rt.mu).
	parked bool
	// released signals the parked thread to continue (guarded by rt.mu).
	released bool
}

// ID returns the thread's deterministic id.
func (t *Thread) ID() int { return t.id }

// Run spawns nthreads threads over body and waits for all of them.
func (rt *Runtime) Run(nthreads int, body func(*Thread)) {
	rt.threads = make([]*Thread, nthreads)
	for i := range rt.threads {
		rt.threads[i] = &Thread{rt: rt, id: i}
	}
	rt.live = nthreads
	var wg sync.WaitGroup
	wg.Add(nthreads)
	for _, t := range rt.threads {
		//detlint:ignore goroutineorder threads are identified by deterministic id and synchronize at logical-quantum round barriers; cross-thread effects are ordered by the quantum schedule, not launch order
		go func(t *Thread) {
			defer wg.Done()
			body(t)
			t.exit()
		}(t)
	}
	wg.Wait()
}

// Work accounts n logical instructions of thread-local computation. When
// the quantum is exhausted the thread parks at the quantum boundary until
// every live thread arrives (the deterministic round barrier).
func (t *Thread) Work(n int64) {
	if !t.rt.enabled {
		return
	}
	t.count += n
	if t.count >= t.rt.quantum {
		t.count = 0
		t.syncPoint(nil)
	}
}

// exit removes the thread from the round barrier.
func (t *Thread) exit() {
	if !t.rt.enabled {
		return
	}
	rt := t.rt
	rt.mu.Lock()
	rt.live--
	if rt.waiting == rt.live && rt.live > 0 {
		rt.serialPhase()
	}
	rt.mu.Unlock()
}

// syncPoint parks the thread at the quantum boundary with an optional
// serialized operation, blocking until the operation has executed (ops
// returning false stay pending across rounds — a blocked lock acquire).
func (t *Thread) syncPoint(op func() bool) {
	rt := t.rt
	rt.mu.Lock()
	t.pending = op
	t.released = false
	t.parked = true
	rt.waiting++
	if rt.waiting == rt.live {
		rt.serialPhase()
	}
	for !t.released {
		rt.cond.Wait()
	}
	rt.mu.Unlock()
}

// serialPhase runs with rt.mu held once every live thread is parked: it
// executes pending operations in thread-id order — the deterministic
// round-robin token of CoreDet — releases unblocked threads, and starts the
// next round. Threads whose operation stays blocked remain parked.
func (rt *Runtime) serialPhase() {
	rt.quanta.Add(1)
	stillBlocked := 0
	for _, t := range rt.threads {
		if !t.parked {
			continue
		}
		if t.pending == nil {
			t.parked = false
			t.released = true
			continue
		}
		rt.syncOps.Add(1)
		if t.pending() {
			t.pending = nil
			t.parked = false
			t.released = true
		} else {
			stillBlocked++
		}
	}
	rt.round++
	rt.waiting = stillBlocked
	rt.cond.Broadcast()
}

// Mutex is a deterministic mutex (plain sync.Mutex when disabled).
type Mutex struct {
	plain  sync.Mutex
	holder *Thread // guarded by rt.mu via the serial phase
}

// Lock acquires m; under deterministic scheduling the acquire happens in
// the serial phase and blocked threads retry in subsequent rounds.
func (t *Thread) Lock(m *Mutex) {
	if !t.rt.enabled {
		t.rt.syncOps.Add(1)
		m.plain.Lock()
		return
	}
	t.count = 0
	t.syncPoint(func() bool {
		if m.holder == nil {
			m.holder = t
			return true
		}
		return false
	})
}

// Unlock releases m.
func (t *Thread) Unlock(m *Mutex) {
	if !t.rt.enabled {
		t.rt.syncOps.Add(1)
		m.plain.Unlock()
		return
	}
	t.count = 0
	var bad bool
	t.syncPoint(func() bool {
		if m.holder != t {
			bad = true
			return true
		}
		m.holder = nil
		return true
	})
	if bad {
		panic("coredet: unlock of mutex not held by this thread")
	}
}

// AtomicAdd adds delta to *p as a synchronization operation and returns the
// new value.
func (t *Thread) AtomicAdd(p *int64, delta int64) int64 {
	if !t.rt.enabled {
		t.rt.syncOps.Add(1)
		return atomic.AddInt64(p, delta)
	}
	t.count = 0
	var out int64
	t.syncPoint(func() bool {
		*p += delta
		out = *p
		return true
	})
	return out
}

// AtomicCAS compare-and-swaps *p as a synchronization operation.
func (t *Thread) AtomicCAS(p *int64, old, new int64) bool {
	if !t.rt.enabled {
		t.rt.syncOps.Add(1)
		return atomic.CompareAndSwapInt64(p, old, new)
	}
	t.count = 0
	var ok bool
	t.syncPoint(func() bool {
		if *p == old {
			*p = new
			ok = true
		} else {
			ok = false
		}
		return true
	})
	return ok
}

// AtomicLoad reads *p as a synchronization operation. (CoreDet treats
// synchronizing loads like any other sync op; racy plain loads are the
// store-buffer case, which the benchmarked programs avoid.)
func (t *Thread) AtomicLoad(p *int64) int64 {
	if !t.rt.enabled {
		t.rt.syncOps.Add(1)
		return atomic.LoadInt64(p)
	}
	t.count = 0
	var out int64
	t.syncPoint(func() bool {
		out = *p
		return true
	})
	return out
}

// Barrier is a deterministic barrier for a fixed number of parties.
type Barrier struct {
	parties int
	plain   *plainBarrier
	arrived int
	gen     uint64
}

// NewBarrier returns a barrier for parties threads.
func NewBarrier(parties int) *Barrier {
	return &Barrier{parties: parties, plain: newPlainBarrier(parties)}
}

// BarrierWait blocks until all parties arrive.
func (t *Thread) BarrierWait(b *Barrier) {
	if !t.rt.enabled {
		t.rt.syncOps.Add(1)
		b.plain.wait()
		return
	}
	t.count = 0
	first := true
	var myGen uint64
	t.syncPoint(func() bool {
		if first {
			first = false
			myGen = b.gen
			b.arrived++
			if b.arrived == b.parties {
				b.arrived = 0
				b.gen++
				return true
			}
		}
		return b.gen != myGen
	})
}

// plainBarrier is a condvar barrier for the disabled mode.
type plainBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	arrived int
	gen     uint64
}

func newPlainBarrier(parties int) *plainBarrier {
	b := &plainBarrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *plainBarrier) wait() {
	b.mu.Lock()
	gen := b.gen
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for gen == b.gen {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}
