// Package msf implements minimum spanning forest with Boruvka's algorithm —
// a classic Lonestar-suite irregular "morph" benchmark in the same family
// as the paper's applications: tasks contract graph components, so the
// conflict structure changes as the algorithm runs, and neighborhoods are
// discovered dynamically by chasing forwarding pointers (as in dt/dmr).
//
//   - Seq: Kruskal (sort + union-find) — also the independent checker.
//   - Galois (non-deterministic or DIG-scheduled): one task per component:
//     find its lightest outgoing edge and contract it into the neighbor.
//   - PBBS: round-based data-parallel Boruvka (each round every component
//     picks its minimum edge; ties in the hooking direction resolve by
//     component id), deterministic by construction.
//
// Edge weights are made unique by packing a tiebreak into the key, so the
// minimum spanning forest is unique and every variant must produce the
// same edge set — which the tests assert.
//
// Boruvka also illustrates the paper's mis lesson (§5.3) from another
// angle: DIG scheduling of the contraction tasks is correct and portable,
// but late-stage components conflict with nearly everything, so the
// deterministic-by-construction round-based variant is far faster — when a
// natural deterministic algorithm exists, prefer it over deterministically
// scheduling a non-deterministic one.
package msf

import (
	"hash/fnv"
	"sort"
	"sync/atomic"

	"galois"
	"galois/internal/graph"
	"galois/internal/para"
	"galois/internal/rng"
	"galois/internal/stats"
)

// WEdge is a weighted undirected edge with a unique key: the upper 32 bits
// are the weight, the lower bits a deterministic tiebreak, so keys order
// totally and the MSF is unique.
type WEdge struct {
	Key  uint64
	U, V uint32
}

// Weight extracts the weight part of the key.
func (e WEdge) Weight() uint32 { return uint32(e.Key >> 32) }

// RandomWeights assigns deterministic pseudo-random weights in [1, maxW] to
// the undirected edges of a symmetrized graph, with unique keys.
func RandomWeights(g *graph.CSR, maxW uint32, seed uint64) []WEdge {
	var edges []WEdge
	idx := uint64(0)
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if uint32(u) >= v {
				continue
			}
			w := uint32(rng.Mix64(uint64(u)<<32|uint64(v)^seed)%uint64(maxW)) + 1
			edges = append(edges, WEdge{Key: uint64(w)<<32 | idx, U: uint32(u), V: v})
			idx++
		}
	}
	return edges
}

// Result is the output of one MSF run.
type Result struct {
	// Chosen holds the keys of the forest's edges.
	Chosen []uint64
	// TotalWeight is the sum of chosen edge weights.
	TotalWeight uint64
	// Stats describes the run.
	Stats stats.Stats
}

// Fingerprint hashes the canonical (sorted) chosen-edge set.
func (r *Result) Fingerprint() uint64 {
	keys := append([]uint64(nil), r.Chosen...)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	h := fnv.New64a()
	var buf [8]byte
	for _, k := range keys {
		for i := range buf {
			buf[i] = byte(k >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Seq computes the MSF with Kruskal's algorithm.
func Seq(n int, edges []WEdge) *Result {
	col := stats.NewCollector(1)
	col.Start()
	sorted := append([]WEdge(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	res := &Result{}
	for _, e := range sorted {
		ru, rv := find(int32(e.U)), find(int32(e.V))
		if ru == rv {
			continue
		}
		parent[ru] = rv
		res.Chosen = append(res.Chosen, e.Key)
		res.TotalWeight += uint64(e.Weight())
		col.Commit(0)
	}
	col.Stop()
	res.Stats = col.Snapshot()
	return res
}

// component is a live contraction node for the Galois variant. Dead
// components forward to the component that absorbed them, exactly like
// dead mesh elements.
type component struct {
	galois.Lockable
	dead  bool
	repl  *component
	edges []WEdge
}

// Galois runs Boruvka contraction under the given scheduler options: the
// task pool is the set of live components; each task locates its lightest
// outgoing edge (skipping intra-component edges lazily) and merges with the
// neighbor at commit, re-enqueueing the survivor.
//
// The speculative variant runs with a FIFO worklist hint (see
// galois.WithFIFO), which keeps contraction balanced; under LIFO,
// TestScalingGN fails.
func Galois(n int, edges []WEdge, opts ...galois.Option) *Result {
	comps := make([]*component, n)
	for i := range comps {
		comps[i] = &component{}
	}
	for _, e := range edges {
		comps[e.U].edges = append(comps[e.U].edges, e)
		comps[e.V].edges = append(comps[e.V].edges, e)
	}

	// Chosen edges are recorded per worker and concatenated at the end;
	// the chosen SET is deterministic (the MSF is unique), so per-thread
	// attribution does not affect the canonical fingerprint.
	maxThreads := 64
	chosen := make([][]uint64, maxThreads)
	var total atomic.Uint64

	// compressed records (dead link, its live root at read time) pairs so
	// the commit phase can path-compress every forwarding chain the task
	// walked. The task owns all walked links (it acquired them), so it is
	// the round's unique writer of each — compression stays deterministic.
	type hop struct{ dead, root *component }

	// FIFO order keeps contraction balanced (Boruvka's round structure):
	// under LIFO a re-pushed survivor is popped immediately and swallows
	// its neighbors one by one, rescanning its whole edge list per merge —
	// quadratic. A scheduling hint only; the MSF is unique regardless.
	opts = append([]galois.Option{galois.WithFIFO()}, opts...)

	st := galois.ForEach(comps, func(ctx *galois.Ctx[*component], c0 *component) {
		var walked []hop
		acq := func(c *component) { ctx.Acquire(&c.Lockable) }
		res := func(c *component) *component {
			acq(c)
			start := c
			for c.dead {
				c = c.repl
				acq(c)
			}
			if start != c {
				walked = append(walked, hop{dead: start, root: c})
			}
			return c
		}
		c := res(c0)
		// Find the lightest edge leaving the component. Every edge's
		// far side is resolved (acquired) to test liveness; stale
		// intra-component edges are recorded for pruning at commit.
		best := WEdge{Key: ^uint64(0)}
		var bestOther *component
		keep := c.edges[:0:0]
		for _, e := range c.edges {
			ou := res(comps[e.U])
			ov := res(comps[e.V])
			other := ou
			if other == c {
				other = ov
			}
			if other == c {
				continue // self loop after contraction: prune
			}
			keep = append(keep, e)
			if e.Key < best.Key {
				best = e
				bestOther = other
			}
		}
		compress := func(survivor, absorbed *component) {
			for _, h := range walked {
				root := h.root
				if root == absorbed {
					root = survivor
				}
				h.dead.repl = root
			}
		}
		if bestOther == nil {
			// Isolated component: finished. Prune in commit.
			ctx.OnCommit(func(*galois.Ctx[*component]) {
				c.edges = keep
				compress(nil, nil)
			})
			return
		}
		o := bestOther
		ctx.OnCommit(func(cc *galois.Ctx[*component]) {
			// Merge smaller edge list into larger (small-to-large
			// keeps total edge movement O(m log n)).
			c.edges = keep
			survivor, absorbed := c, o
			if len(absorbed.edges) > len(survivor.edges) {
				survivor, absorbed = absorbed, survivor
			}
			absorbed.dead = true
			absorbed.repl = survivor
			survivor.edges = append(survivor.edges, absorbed.edges...)
			absorbed.edges = nil
			compress(survivor, absorbed)
			tid := cc.TID() % maxThreads
			chosen[tid] = append(chosen[tid], best.Key)
			total.Add(uint64(best.Weight()))
			cc.Push(survivor)
		})
	}, opts...)

	res := &Result{TotalWeight: total.Load(), Stats: st}
	for _, c := range chosen {
		res.Chosen = append(res.Chosen, c...)
	}
	return res
}

// PBBS computes the MSF with round-based data-parallel Boruvka: per round,
// every live component picks its minimum outgoing edge; the resulting hook
// graph is acyclic except for mutual pairs, which resolve toward the lower
// component id; contraction relabels by pointer jumping. Deterministic by
// construction for every thread count.
func PBBS(n int, edges []WEdge, nthreads int) *Result {
	col := stats.NewCollector(nthreads)
	col.Start()
	label := make([]uint32, n)
	for i := range label {
		label[i] = uint32(i)
	}
	live := append([]WEdge(nil), edges...)
	res := &Result{}
	const noEdge = ^uint64(0)
	minKey := make([]atomic.Uint64, n)
	minEdge := make([]WEdge, n)
	for len(live) > 0 {
		// Phase 1: per-component minimum outgoing edge (write-min).
		for i := range minKey {
			minKey[i].Store(noEdge)
		}
		para.For(nthreads, len(live), func(tid, i int) {
			e := live[i]
			for _, c := range [2]uint32{label[e.U], label[e.V]} {
				for {
					cur := minKey[c].Load()
					col.AtomicOp(tid, 1)
					if e.Key >= cur {
						break
					}
					if minKey[c].CompareAndSwap(cur, e.Key) {
						break
					}
				}
			}
		})
		// Record winners (sequential: needs the edge, not just key).
		for i := range minEdge {
			minEdge[i] = WEdge{Key: noEdge}
		}
		for _, e := range live {
			if minKey[label[e.U]].Load() == e.Key {
				minEdge[label[e.U]] = e
			}
			if minKey[label[e.V]].Load() == e.Key {
				minEdge[label[e.V]] = e
			}
		}
		// Phase 2: hook. Component c hooks toward the other side of
		// its min edge; mutual pairs keep the lower id as root.
		parent := make([]uint32, n)
		for i := range parent {
			parent[i] = uint32(i)
		}
		chosenBefore := len(res.Chosen)
		for c := 0; c < n; c++ {
			e := minEdge[c]
			if e.Key == noEdge || uint32(c) != label[e.U] && uint32(c) != label[e.V] {
				continue
			}
			other := label[e.U]
			if other == uint32(c) {
				other = label[e.V]
			}
			// Mutual hook resolves toward the smaller id.
			oe := minEdge[other]
			if oe.Key == e.Key && other < uint32(c) {
				parent[c] = other
				continue
			}
			if oe.Key == e.Key && other > uint32(c) {
				// This side is the root; the partner hooks here.
				res.Chosen = append(res.Chosen, e.Key)
				res.TotalWeight += uint64(e.Weight())
				continue
			}
			parent[c] = other
			res.Chosen = append(res.Chosen, e.Key)
			res.TotalWeight += uint64(e.Weight())
		}
		// Pointer jumping to full compression.
		for {
			changed := false
			for c := 0; c < n; c++ {
				if parent[parent[c]] != parent[c] {
					parent[c] = parent[parent[c]]
					changed = true
				}
			}
			if !changed {
				break
			}
		}
		// Relabel nodes and drop intra-component edges.
		para.For(nthreads, n, func(tid, v int) {
			label[v] = parent[label[v]]
		})
		var next []WEdge
		for _, e := range live {
			if label[e.U] != label[e.V] {
				next = append(next, e)
			}
		}
		// The round attempts every live edge and commits the ones it hooks.
		col.Round(stats.Round{Window: len(live), Committed: len(res.Chosen) - chosenBefore})
		live = next
	}
	col.Stop()
	res.Stats = col.Snapshot()
	return res
}
