// Package sssp implements single-source shortest paths — a Lonestar-suite
// irregular benchmark beyond the paper's four, included as a library
// extension because it is the canonical client of the OBIM priority
// worklist (delta-stepping-style scheduling): the non-deterministic
// scheduler converges orders of magnitude faster when relaxations drain in
// approximate distance order, while correctness — and the deterministic
// schedule — never depend on it.
//
//   - Seq: Dijkstra with a binary heap (baseline and checker).
//   - Galois (non-deterministic or DIG-scheduled): data-driven chaotic
//     relaxation; a task expands one node, relaxing its incident edges
//     under acquired locks. The non-deterministic variant runs under OBIM
//     with priority = distance/delta.
//
// Distances are the unique fixed point, so every variant agrees — which
// the tests assert.
package sssp

import (
	"container/heap"
	"math"
	"sync/atomic"

	"galois"
	"galois/internal/canon"
	"galois/internal/graph"
	"galois/internal/stats"
)

// Inf is the distance of unreachable nodes.
const Inf = math.MaxUint64

// Result is the output of one run.
type Result struct {
	// Dist[v] is the shortest distance from the source (Inf if
	// unreachable).
	Dist []uint64
	// Stats describes the run.
	Stats stats.Stats
}

// Fingerprint hashes the distance array.
func (r *Result) Fingerprint() uint64 {
	h := canon.NewFNV()
	for _, d := range r.Dist {
		h = h.U64(d)
	}
	return uint64(h)
}

// pqItem is a heap entry for Dijkstra.
type pqItem struct {
	v uint32
	d uint64
}

type pq []pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].d < q[j].d }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// Seq runs Dijkstra from src.
func Seq(g *graph.Weighted, src int) *Result {
	col := stats.NewCollector(1)
	col.Start()
	n := g.N()
	dist := make([]uint64, n)
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	q := &pq{{v: uint32(src), d: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.d != dist[it.v] {
			continue // stale entry
		}
		col.Commit(0)
		lo, _ := g.EdgeRange(int(it.v))
		for i, w := range g.Neighbors(int(it.v)) {
			nd := it.d + uint64(g.W[lo+int64(i)])
			if nd < dist[w] {
				dist[w] = nd
				heap.Push(q, pqItem{v: w, d: nd})
			}
		}
	}
	col.Stop()
	return &Result{Dist: dist, Stats: col.Snapshot()}
}

// node is the Galois variants' per-node state. dist is atomic because the
// OBIM priority hint reads it outside the node's lock (e.g. when an aborted
// task is requeued); all correctness-relevant reads and writes happen under
// the acquired lock, the atomicity only keeps the hint race-clean.
type node struct {
	galois.Lockable
	dist atomic.Uint64
}

// Options tunes the Galois variants.
type Options struct {
	// Delta is the OBIM bucket width for the non-deterministic
	// scheduler's priority (0 disables OBIM). A pure performance knob.
	Delta uint64
	// Levels is the OBIM bucket count (0 = default).
	Levels int
}

// DefaultOptions uses delta = maxWeight (the classic heuristic) with 512
// buckets.
func DefaultOptions(maxWeight uint32) Options {
	return Options{Delta: uint64(maxWeight), Levels: 512}
}

// Galois runs data-driven SSSP under the given scheduler options. A task
// expands one node: it acquires the node and its neighbors, relaxes every
// improvable edge at commit, and creates expansion tasks for improved
// neighbors (the same shape as the paper's bfs, with weights).
//
// The speculative variant's worklist hint is OBIM by distance / o.Delta
// (see galois.WithPriority), as in Galois's delta-stepping sssp: nodes near
// the frontier's minimum distance expand first, so few are relabeled
// later. With o.Delta = 0 it is FIFO, for bfs's reason.
func Galois(g *graph.Weighted, src int, o Options, opts ...galois.Option) *Result {
	n := g.N()
	nodes := make([]node, n)
	for i := range nodes {
		nodes[i].dist.Store(Inf)
	}
	nodes[src].dist.Store(0)

	if o.Delta > 0 {
		levels := o.Levels
		if levels <= 0 {
			levels = 512
		}
		delta := o.Delta
		opts = append([]galois.Option{galois.WithPriority(func(u uint32) int {
			// Racy read as a hint only: the executing task
			// re-reads under its lock.
			d := nodes[u].dist.Load()
			if d == Inf {
				return levels - 1
			}
			return int(d / delta)
		}, levels)}, opts...)
	} else {
		opts = append([]galois.Option{galois.WithFIFO()}, opts...)
	}

	// The commit handler is built once: it re-reads its node's acquired
	// distance and relaxes every improvable edge. Those are the edges the
	// body saw improve, in the same order, as long as no edge is duplicated
	// and none is a self-loop — true of every graph.Symmetrize output.
	relax := func(c *galois.Ctx[uint32]) {
		u := c.Item()
		d := nodes[u].dist.Load()
		lo, _ := g.EdgeRange(int(u))
		for i, v := range g.Neighbors(int(u)) {
			if nd, nv := d+uint64(g.W[lo+int64(i)]), &nodes[v]; nd < nv.dist.Load() {
				nv.dist.Store(nd)
				c.Push(v)
			}
		}
	}
	st := galois.ForEach([]uint32{uint32(src)}, func(ctx *galois.Ctx[uint32], u uint32) {
		nu := &nodes[u]
		ctx.Acquire(&nu.Lockable)
		d := nu.dist.Load()
		if d == Inf {
			return // defensive: tasks are only created for reached nodes
		}
		lo, _ := g.EdgeRange(int(u))
		improves := false
		for i, v := range g.Neighbors(int(u)) {
			nv := &nodes[v]
			ctx.Acquire(&nv.Lockable)
			if d+uint64(g.W[lo+int64(i)]) < nv.dist.Load() {
				improves = true
			}
		}
		if improves {
			ctx.OnCommit(relax)
		}
	}, opts...)

	dist := make([]uint64, n)
	for i := range nodes {
		dist[i] = nodes[i].dist.Load()
	}
	return &Result{Dist: dist, Stats: st}
}
