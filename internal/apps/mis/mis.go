// Package mis implements the paper's maximal-independent-set benchmark
// (§4.1) in four variants:
//
//   - Seq: sequential greedy MIS by node id (the lexicographically first
//     MIS).
//   - PBBS: the data-parallel deterministic-by-construction prefix-based
//     greedy MIS of the PBBS suite. It computes exactly the
//     lexicographically-first MIS, so its output equals Seq for every
//     thread count.
//   - Galois (non-deterministic or DIG-scheduled): the Lonestar-style
//     formulation: one task per node acquires the node and its neighbors
//     and joins the set if no neighbor has joined. Its output depends on
//     the schedule — which is precisely what makes it the paper's test of
//     on-demand determinism (DIG makes the chosen schedule reproducible).
package mis

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"

	"galois"
	"galois/internal/graph"
	"galois/internal/para"
	"galois/internal/stats"
)

// State of a node in the MIS computation.
type State uint8

// Node states.
const (
	Unknown State = iota
	In
	Out
)

// Result is the output of one MIS run.
type Result struct {
	// InSet[v] reports whether v is in the independent set.
	InSet []bool
	// Stats describes the run.
	Stats stats.Stats
}

// Fingerprint hashes the membership bitmap.
func (r *Result) Fingerprint() uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 64)
	for i, in := range r.InSet {
		if in {
			v := uint64(i)
			buf = append(buf[:0], byte(v), byte(v>>8), byte(v>>16), byte(v>>24), byte(v>>32))
			h.Write(buf)
		}
	}
	return h.Sum64()
}

// Size returns the number of set members.
func (r *Result) Size() int {
	n := 0
	for _, in := range r.InSet {
		if in {
			n++
		}
	}
	return n
}

// Check verifies independence and maximality of the result against g.
func (r *Result) Check(g *graph.CSR) error {
	for u := 0; u < g.N(); u++ {
		hasInNeighbor := false
		for _, v := range g.Neighbors(u) {
			if r.InSet[v] {
				hasInNeighbor = true
				if r.InSet[u] {
					return fmt.Errorf("mis: adjacent nodes %d and %d both in set", u, v)
				}
			}
		}
		if !r.InSet[u] && !hasInNeighbor {
			return fmt.Errorf("mis: node %d is excludable but has no neighbor in set", u)
		}
	}
	return nil
}

// Seq computes the lexicographically-first MIS greedily.
func Seq(g *graph.CSR) *Result {
	n := g.N()
	in := make([]bool, n)
	out := make([]bool, n)
	col := stats.NewCollector(1)
	col.Start()
	for u := 0; u < n; u++ {
		if out[u] {
			col.Commit(0)
			continue
		}
		in[u] = true
		for _, v := range g.Neighbors(u) {
			out[v] = true
		}
		col.Commit(0)
	}
	col.Stop()
	return &Result{InSet: in, Stats: col.Snapshot()}
}

// PBBS computes the lexicographically-first MIS with the PBBS prefix-based
// data-parallel algorithm: rounds over a prefix of the remaining nodes; a
// node decides In when every lower-id neighbor has decided Out, and Out
// when any lower-id neighbor is In. Both conditions are monotone, so the
// result is independent of thread count and equals Seq's output.
func PBBS(g *graph.CSR, nthreads int) *Result {
	n := g.N()
	// States are read concurrently with (monotone) writes, so they are
	// atomic; a node's state is written at most once.
	state := make([]atomic.Uint32, n)
	col := stats.NewCollector(nthreads)
	col.Start()
	remaining := make([]uint32, n)
	for i := range remaining {
		remaining[i] = uint32(i)
	}
	// Prefix size: like PBBS, a multiple of the worker count balances
	// wasted checks against rounds; the value affects performance only.
	prefix := n / 50
	if prefix < 256 {
		prefix = 256
	}
	for len(remaining) > 0 {
		p := prefix
		if p > len(remaining) {
			p = len(remaining)
		}
		cur := remaining[:p]
		decided := make([]atomic.Bool, p)
		// Iterate the prefix to a fixed point. Progress per sweep is
		// guaranteed: the smallest undecided node in the prefix has
		// all lower-id neighbors decided (lower ids outside the
		// prefix were decided in earlier prefixes).
		for {
			done := true
			para.For(nthreads, p, func(tid, i int) {
				if decided[i].Load() {
					return
				}
				u := cur[i]
				allLowerOut := true
				for _, v := range g.Neighbors(int(u)) {
					if v >= u {
						continue
					}
					switch State(state[v].Load()) {
					case In:
						state[u].Store(uint32(Out))
						decided[i].Store(true)
						col.AtomicOp(tid, 1)
						return
					case Unknown:
						allLowerOut = false
					case Out:
					}
				}
				if allLowerOut {
					state[u].Store(uint32(In))
					decided[i].Store(true)
					col.AtomicOp(tid, 1)
				}
			})
			for i := range decided {
				if !decided[i].Load() {
					done = false
					break
				}
			}
			if done {
				break
			}
		}
		col.Round(stats.Round{Window: p, Committed: p}) // every prefix node is decided
		remaining = remaining[p:]
	}
	col.Stop()
	in := make([]bool, n)
	for i := range state {
		in[i] = State(state[i].Load()) == In
	}
	return &Result{InSet: in, Stats: col.Snapshot()}
}

// node is the Galois variants' per-node state.
type node struct {
	galois.Lockable
	state State
}

// Galois runs the Lonestar-style MIS under the given scheduler options: one
// task per node; the task acquires the node and all neighbors, reads their
// states, and joins the set iff no neighbor has joined. The two commit
// handlers are built once and find their node through Ctx.Item.
//
// The speculative variant takes no worklist hint (the default chunked
// LIFO): tasks create no children, and any order yields a maximal
// independent set, so the cheapest worklist is the right one.
func Galois(g *graph.CSR, opts ...galois.Option) *Result {
	n := g.N()
	nodes := make([]node, n)
	items := make([]uint32, n)
	for i := range items {
		items[i] = uint32(i)
	}
	markIn := func(c *galois.Ctx[uint32]) { nodes[c.Item()].state = In }
	markOut := func(c *galois.Ctx[uint32]) { nodes[c.Item()].state = Out }
	st := galois.ForEach(items, func(ctx *galois.Ctx[uint32], u uint32) {
		ctx.Acquire(&nodes[u].Lockable)
		anyIn := false
		for _, v := range g.Neighbors(int(u)) {
			m := &nodes[v]
			ctx.Acquire(&m.Lockable)
			if m.state == In {
				anyIn = true
			}
		}
		if anyIn {
			ctx.OnCommit(markOut)
			return
		}
		ctx.OnCommit(markIn)
	}, opts...)
	in := make([]bool, n)
	for i := range nodes {
		in[i] = nodes[i].state == In
	}
	return &Result{InSet: in, Stats: st}
}
