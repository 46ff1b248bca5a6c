// Package bfs implements the paper's breadth-first-search benchmark (§4.1)
// in four variants:
//
//   - Seq: an optimized sequential array-queue BFS — the role the
//     Schardl–Leiserson baseline plays in Figure 8.
//   - PBBS: a handwritten deterministic level-synchronous BFS in the style
//     of the PBBS suite: per level, candidate parents are combined with
//     write-min so the BFS tree is independent of thread count.
//   - Galois (non-deterministic or DIG-scheduled): the Lonestar-style
//     data-driven formulation: a task relaxes one node's distance and
//     creates tasks for improved neighbors.
//
// All variants compute the same distances (BFS distances are confluent);
// the deterministic variants additionally fix the parent tree.
package bfs

import (
	"math"
	"sync/atomic"

	"galois"
	"galois/internal/canon"
	"galois/internal/graph"
	"galois/internal/para"
	"galois/internal/scan"
	"galois/internal/stats"
)

// Inf is the distance of unreached nodes.
const Inf = math.MaxUint32

// Result is the output of one BFS run.
type Result struct {
	// Dist[v] is the BFS distance from the source (Inf if unreached).
	Dist []uint32
	// Parent[v] is the BFS tree parent (only set by the PBBS variant;
	// nil otherwise).
	Parent []uint32
	// Stats describes the run.
	Stats stats.Stats
}

// Fingerprint hashes the distance array (and parent array when present).
func (r *Result) Fingerprint() uint64 {
	h := canon.NewFNV()
	for _, d := range r.Dist {
		h = h.U32(d)
	}
	for _, p := range r.Parent {
		h = h.U32(p)
	}
	return uint64(h)
}

// Seq runs sequential BFS from src.
func Seq(g *graph.CSR, src int) *Result {
	n := g.N()
	dist := make([]uint32, n)
	for i := range dist {
		dist[i] = Inf
	}
	queue := make([]uint32, 0, n)
	dist[src] = 0
	queue = append(queue, uint32(src))
	c := stats.NewCollector(1)
	c.Start()
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] == Inf {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
		c.Commit(0)
	}
	c.Stop()
	return &Result{Dist: dist, Stats: c.Snapshot()}
}

// PBBS runs the handwritten deterministic level-synchronous BFS on nthreads
// threads. Per level it (1) proposes parents for undiscovered neighbors
// with an atomic write-min and (2) commits the minimum proposer, so the
// output tree is a pure function of the graph — the "determinism by
// construction" technique the PBBS codes use (§4.1).
func PBBS(g *graph.CSR, src, nthreads int) *Result {
	n := g.N()
	dist := make([]uint32, n)
	parent := make([]uint32, n)
	cand := make([]atomic.Uint32, n)
	for i := range dist {
		dist[i] = Inf
		parent[i] = Inf
		cand[i].Store(Inf)
	}
	col := stats.NewCollector(nthreads)
	col.Start()
	dist[src] = 0
	parent[src] = uint32(src)
	frontier := []uint32{uint32(src)}
	level := uint32(0)
	// Per-block next-frontier buffers, concatenated in block order so the
	// frontier sequence itself is deterministic.
	for len(frontier) > 0 {
		blocks := nthreads
		if blocks > len(frontier) {
			blocks = len(frontier)
		}
		nextBufs := make([][]uint32, blocks)
		// Phase 1: propose parents via write-min.
		para.ForBlocked(blocks, len(frontier), func(b, lo, hi int) {
			ops := 0
			for _, u := range frontier[lo:hi] {
				for _, v := range g.Neighbors(int(u)) {
					if dist[v] != Inf {
						continue
					}
					// writeMin(cand[v], u)
					for {
						cur := cand[v].Load()
						ops++
						if u >= cur {
							break
						}
						if cand[v].CompareAndSwap(cur, u) {
							ops++
							break
						}
					}
				}
			}
			col.AtomicOp(b, ops)
		})
		// Phase 2: commit minima and build the next frontier.
		para.ForBlocked(blocks, len(frontier), func(b, lo, hi int) {
			var buf []uint32
			for _, u := range frontier[lo:hi] {
				for _, v := range g.Neighbors(int(u)) {
					// cand[v] == u implies v was undiscovered in
					// phase 1 of this level and u is its unique
					// minimum proposer (node ids appear in at
					// most one frontier, so stale candidates
					// can never equal a current frontier node).
					if cand[v].Load() != u {
						continue
					}
					dist[v] = level + 1
					parent[v] = u
					buf = append(buf, v)
				}
			}
			nextBufs[b] = buf
		})
		// Every frontier node commits: the level is one round.
		col.Round(stats.Round{Window: len(frontier), Committed: len(frontier)})
		// Deterministic parallel frontier packing (block order).
		frontier = scan.Pack(nextBufs, nthreads)
		level++
	}
	col.Stop()
	return &Result{Dist: dist, Parent: parent, Stats: col.Snapshot()}
}

// node is the Galois variants' per-node state.
type node struct {
	galois.Lockable
	dist uint32
}

// Galois runs the Lonestar-style data-driven BFS under the given scheduler
// options. A task expands one node: it acquires the node and its neighbors,
// relaxes every improvable edge in its commit phase, and creates an
// expansion task for each improved neighbor. All decisions — including
// which tasks to create — derive from acquired state, so under DIG
// scheduling the entire task DAG is deterministic.
//
// The body only decides whether any neighbor improves; the commit handler,
// built once, re-reads the acquired distances of its node (Ctx.Item) and
// relaxes them. It relaxes and pushes the same neighbors in the same order
// as a per-task list would, provided adjacency has no duplicate edges and
// no self-loops — true of every graph.Symmetrize output.
//
// The variant runs with a FIFO worklist hint (see galois.WithFIFO): with
// LIFO order the speculative scheduler would label nodes with long
// DFS-path distances first and then spend most of its time correcting them.
func Galois(g *graph.CSR, src int, opts ...galois.Option) *Result {
	n := g.N()
	nodes := make([]node, n)
	for i := range nodes {
		nodes[i].dist = Inf
	}
	nodes[src].dist = 0

	relax := func(c *galois.Ctx[uint32]) {
		u := c.Item()
		d := nodes[u].dist
		for _, v := range g.Neighbors(int(u)) {
			if nv := &nodes[v]; nv.dist > d+1 {
				nv.dist = d + 1
				c.Push(v)
			}
		}
	}
	opts = append([]galois.Option{galois.WithFIFO()}, opts...)
	st := galois.ForEach([]uint32{uint32(src)}, func(ctx *galois.Ctx[uint32], u uint32) {
		nu := &nodes[u]
		ctx.Acquire(&nu.Lockable)
		d := nu.dist
		improves := false
		for _, v := range g.Neighbors(int(u)) {
			nv := &nodes[v]
			ctx.Acquire(&nv.Lockable)
			if nv.dist > d+1 {
				improves = true
			}
		}
		if improves {
			ctx.OnCommit(relax)
		}
	}, opts...)

	dist := make([]uint32, n)
	for i := range nodes {
		dist[i] = nodes[i].dist
	}
	return &Result{Dist: dist, Stats: st}
}
