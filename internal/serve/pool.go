package serve

import (
	"sync"

	"galois"
)

// EnginePool checks reusable galois.Engine instances in and out. Engines
// are keyed by thread count — an engine's worker pool and barriers are
// built for one parallelism — and each key grows lazily to capPerKey
// retained engines. When every pooled engine of a key is checked out the
// pool hands back a transient engine that is closed on return instead of
// retained, so admission never blocks on engine availability; with the
// worker count at or below the cap, the steady state of a warmed server
// is all hits.
//
// A returned engine is scrubbed before it goes idle (galois.Engine.Scrub):
// its scratch keeps its capacity and forgets the items, children and commit
// closures of the job it ran, so an idle engine pins no finished mesh or
// graph, whatever the next job on it turns out to be.
//
// An Engine is single-run-at-a-time (a second concurrent run panics — see
// galois.Engine), which is exactly why the pool exists: checkout grants
// the holder exclusive use, and the pool never hands one engine to two
// jobs.
type EnginePool struct {
	mu        sync.Mutex
	capPerKey int
	idle      map[int][]*galois.Engine
	live      map[int]int // created-and-retained engines per key
	closed    bool

	hits, misses, transients, scrubs uint64
}

// PoolCounters is a snapshot of the pool's checkout statistics.
type PoolCounters struct {
	// Hits are checkouts served by an idle pooled engine (no
	// construction). Misses grew the pool by one engine. Transients were
	// handed a throwaway engine because the key was at capacity.
	Hits, Misses, Transients uint64
	// Scrubs counts engines scrubbed on their way back to the idle set.
	Scrubs uint64
}

// NewEnginePool returns a pool retaining up to capPerKey engines per
// thread-count key (minimum 1).
func NewEnginePool(capPerKey int) *EnginePool {
	if capPerKey < 1 {
		capPerKey = 1
	}
	return &EnginePool{
		capPerKey: capPerKey,
		idle:      make(map[int][]*galois.Engine),
		live:      make(map[int]int),
	}
}

// Get checks an engine for the given thread count out of the pool,
// constructing one if no idle engine exists. transient engines must not be
// returned to the idle set; Put handles that given the same flag back.
func (p *EnginePool) Get(threads int) (eng *galois.Engine, transient bool) {
	p.mu.Lock()
	if q := p.idle[threads]; len(q) > 0 {
		eng = q[len(q)-1]
		p.idle[threads] = q[:len(q)-1]
		p.hits++
		p.mu.Unlock()
		return eng, false
	}
	if p.closed || p.live[threads] >= p.capPerKey {
		p.transients++
		p.mu.Unlock()
		return galois.NewEngine(galois.WithThreads(threads)), true
	}
	p.live[threads]++
	p.misses++
	p.mu.Unlock()
	return galois.NewEngine(galois.WithThreads(threads)), false
}

// Put returns a checked-out engine. Transient engines, and any engine
// returned after Drain, are closed instead of retained; a retained engine
// is scrubbed first, outside the lock.
func (p *EnginePool) Put(threads int, eng *galois.Engine, transient bool) {
	if !transient {
		eng.Scrub()
	}
	p.mu.Lock()
	if transient || p.closed {
		if !transient {
			p.live[threads]--
		}
		p.mu.Unlock()
		eng.Close()
		return
	}
	p.scrubs++
	p.idle[threads] = append(p.idle[threads], eng)
	p.mu.Unlock()
}

// Discard closes a checked-out engine without returning it — for engines
// whose run panicked and whose retained state is suspect.
func (p *EnginePool) Discard(threads int, eng *galois.Engine, transient bool) {
	p.mu.Lock()
	if !transient {
		p.live[threads]--
	}
	p.mu.Unlock()
	eng.Close()
}

// Drain closes every idle engine and marks the pool closed: engines still
// checked out are closed as they come back, and future Gets return
// transients. Idempotent.
func (p *EnginePool) Drain() {
	p.mu.Lock()
	p.closed = true
	var toClose []*galois.Engine
	for _, q := range p.idle { //detlint:ordered closing engines; order has no observable effect
		toClose = append(toClose, q...)
	}
	p.idle = make(map[int][]*galois.Engine)
	p.mu.Unlock()
	for _, eng := range toClose {
		eng.Close()
	}
}

// Counters snapshots the checkout statistics.
func (p *EnginePool) Counters() PoolCounters {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolCounters{Hits: p.hits, Misses: p.misses, Transients: p.transients, Scrubs: p.scrubs}
}
