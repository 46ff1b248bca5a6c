// Package cachesim models the memory-locality measurements of §5.4 of the
// paper. The paper samples hardware performance counters for data requests
// satisfied from DRAM (Figure 11); portable Go cannot read those counters,
// so we substitute the canonical software locality measure: exact LRU
// reuse (stack) distances over the stream of abstract-location accesses,
// computed with Olken's algorithm (a Fenwick tree over access timestamps).
//
// An access whose reuse distance exceeds the modeled last-level cache
// capacity is counted as a "DRAM request". The quantity this exposes is the
// same one the paper's counters expose: the deterministic scheduler
// separates a task's inspect-phase accesses from its execute-phase accesses
// by an entire round, stretching reuse distances and pushing them past the
// cache capacity.
package cachesim

import (
	"sort"
	"sync"
	"sync/atomic"

	"galois/internal/marks"
)

// DefaultCacheLocations is the default modeled cache capacity in abstract
// locations. Abstract locations (graph nodes, triangles) are tens to
// hundreds of bytes, so 1<<18 locations corresponds to a last-level cache of
// a few tens of MB — the scale of the paper's Xeon E7 machines.
const DefaultCacheLocations = 1 << 18

type access struct {
	seq uint64
	loc *marks.Lockable
}

// Tracer records abstract-location accesses from concurrent workers. A
// global atomic sequence number captures the interleaved access order; each
// worker appends to a private buffer, so tracing adds one atomic increment
// per access.
//
// A task's read phase is kept as a span (Begin, End) and replayed by its
// commit (Replay): round-based scheduling puts the rest of the round between
// the two visits, the locality loss the paper reads from DRAM counters.
type Tracer struct {
	seq     atomic.Uint64
	buffers [][]access
	open    []int // open[tid]: where thread tid's span began

	mu    sync.Mutex
	spans map[int][]access
}

// NewTracer returns a tracer for nthreads workers.
func NewTracer(nthreads int) *Tracer {
	return &Tracer{buffers: make([][]access, nthreads), open: make([]int, nthreads), spans: make(map[int][]access)}
}

// Touch records that thread tid accessed location loc.
func (t *Tracer) Touch(tid int, loc *marks.Lockable) {
	s := t.seq.Add(1)
	t.buffers[tid] = append(t.buffers[tid], access{seq: s, loc: loc})
}

// Begin opens a span on thread tid: the accesses it records until End.
func (t *Tracer) Begin(tid int) { t.open[tid] = len(t.buffers[tid]) }

// End keeps thread tid's span as task key's read phase, for Replay.
func (t *Tracer) End(tid, key int) {
	b := t.buffers[tid]
	t.mu.Lock()
	t.spans[key] = b[t.open[tid]:len(b):len(b)] // later appends never write it
	t.mu.Unlock()
}

// Replay records on thread tid one more access to every location of task
// key's span, in order: the task's commit.
func (t *Tracer) Replay(tid, key int) {
	t.mu.Lock()
	span := t.spans[key]
	t.mu.Unlock()
	for _, a := range span {
		t.Touch(tid, a.loc)
	}
}

// Len returns the total number of recorded accesses.
func (t *Tracer) Len() int {
	n := 0
	for _, b := range t.buffers {
		n += len(b)
	}
	return n
}

// Report summarizes the locality of a trace.
type Report struct {
	// Accesses is the total number of location accesses.
	Accesses uint64
	// ColdMisses is the number of first-ever accesses to a location.
	ColdMisses uint64
	// CapacityMisses is the number of re-accesses whose LRU reuse
	// distance was at least the modeled cache capacity.
	CapacityMisses uint64
	// MeanReuseDistance is the mean reuse distance over re-accesses.
	MeanReuseDistance float64
}

// DRAMRequests returns the modeled DRAM traffic: cold plus capacity misses.
// This is the Figure 11 quantity.
func (r Report) DRAMRequests() uint64 { return r.ColdMisses + r.CapacityMisses }

// Analyze computes exact LRU reuse distances for the recorded trace against
// a cache holding cacheLocations abstract locations. If cacheLocations <= 0,
// DefaultCacheLocations is used.
func (t *Tracer) Analyze(cacheLocations int) Report {
	if cacheLocations <= 0 {
		cacheLocations = DefaultCacheLocations
	}
	// Merge the per-thread buffers into global access order.
	var trace []access
	for _, b := range t.buffers {
		trace = append(trace, b...)
	}
	sort.Slice(trace, func(i, j int) bool { return trace[i].seq < trace[j].seq })

	n := len(trace)
	rep := Report{Accesses: uint64(n)}
	if n == 0 {
		return rep
	}
	// Olken's algorithm: Fenwick tree over trace positions; tree[i] == 1
	// iff position i was the most recent access to its location. The
	// reuse distance of an access is the number of ones strictly after
	// the location's previous access position.
	tree := newFenwick(n)
	last := make(map[*marks.Lockable]int, n/4)
	var sumDist float64
	var reuses uint64
	for i, a := range trace {
		if j, seen := last[a.loc]; seen {
			// Distinct locations touched in (j, i).
			dist := tree.sum(i) - tree.sum(j)
			reuses++
			sumDist += float64(dist)
			if dist >= cacheLocations {
				rep.CapacityMisses++
			}
			tree.add(j, -1)
		} else {
			rep.ColdMisses++
		}
		tree.add(i, 1)
		last[a.loc] = i
	}
	if reuses > 0 {
		rep.MeanReuseDistance = sumDist / float64(reuses)
	}
	return rep
}

// fenwick is a standard binary indexed tree over [0, n).
type fenwick struct {
	t []int
}

func newFenwick(n int) *fenwick { return &fenwick{t: make([]int, n+1)} }

// add adds v at position i.
func (f *fenwick) add(i, v int) {
	for i++; i < len(f.t); i += i & (-i) {
		f.t[i] += v
	}
}

// sum returns the prefix sum over [0, i].
func (f *fenwick) sum(i int) int {
	s := 0
	for i++; i > 0; i -= i & (-i) {
		s += f.t[i]
	}
	return s
}
