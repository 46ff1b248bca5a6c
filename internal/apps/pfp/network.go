// Package pfp implements the paper's preflow-push benchmark (§4.1):
// Goldberg–Tarjan push–relabel maximum flow with the global relabeling
// heuristic, in three variants:
//
//   - Seq: an optimized sequential FIFO push–relabel with current-arc,
//     gap and periodic-global-relabel heuristics — the role hi_pr plays in
//     Figure 8.
//   - Galois (non-deterministic or DIG-scheduled): the Lonestar
//     formulation — a task discharges one active node (acquiring it and
//     its neighbors), activating neighbors as new tasks; outer rounds
//     interleave deterministic global relabelings.
//
// A separate Dinic implementation provides an independent correctness
// check of the computed flow value.
package pfp

import (
	"fmt"
	"unsafe"

	"galois/internal/graph"
	"galois/internal/marks"
	"galois/internal/rng"
)

// Network is a flow network in adjacency-array form with paired residual
// arcs: arc a and arc rev[a] are the two directions of one edge.
type Network struct {
	N      int
	Source int
	Sink   int
	// off[u] : off[u+1] is u's arc range.
	off []int64
	// head[a] is the target of arc a.
	head []uint32
	// cap[a] is the residual capacity of arc a (mutated by runs).
	cap []int64
	// rev[a] is the index of a's reverse arc.
	rev []int64
	// orig[a] is the original capacity (for flow extraction and reset).
	orig []int64
	// nodes[u] carries per-node algorithm state.
	nodes []node
}

type node struct {
	marks.Lockable
	height uint32
	excess int64
}

// Build constructs a network from a directed graph with the given per-edge
// capacity function. Parallel edges are kept; self loops dropped.
func Build(g *graph.CSR, capOf func(u int, k int) int64, source, sink int) *Network {
	n := g.N()
	type arc struct {
		u, v uint32
		c    int64
	}
	arcs := make([]arc, 0, 2*g.M())
	for u := 0; u < n; u++ {
		for k, v := range g.Neighbors(u) {
			if int(v) == u {
				continue
			}
			arcs = append(arcs, arc{u: uint32(u), v: v, c: capOf(u, k)})
		}
	}
	nw := &Network{N: n, Source: source, Sink: sink}
	nw.off = make([]int64, n+1)
	for _, a := range arcs {
		nw.off[a.u+1]++
		nw.off[a.v+1]++
	}
	for i := 0; i < n; i++ {
		nw.off[i+1] += nw.off[i]
	}
	m2 := 2 * len(arcs)
	nw.head = make([]uint32, m2)
	nw.cap = make([]int64, m2)
	nw.rev = make([]int64, m2)
	nw.orig = make([]int64, m2)
	cursor := make([]int64, n)
	copy(cursor, nw.off[:n])
	for _, a := range arcs {
		fw := cursor[a.u]
		cursor[a.u]++
		bw := cursor[a.v]
		cursor[a.v]++
		nw.head[fw] = a.v
		nw.cap[fw] = a.c
		nw.orig[fw] = a.c
		nw.rev[fw] = bw
		nw.head[bw] = a.u
		nw.cap[bw] = 0
		nw.orig[bw] = 0
		nw.rev[bw] = fw
	}
	nw.nodes = make([]node, n)
	return nw
}

// RandomNetwork generates the paper's pfp input family: a random k-out
// graph with uniform capacities in [1, maxCap], source 0, sink n-1.
func RandomNetwork(n, k int, maxCap int64, seed uint64) *Network {
	g := graph.RandomKOut(n, k, seed)
	r := rng.New(seed ^ 0xabcdef)
	caps := make([]int64, g.M())
	for i := range caps {
		caps[i] = 1 + int64(r.Uint64n(uint64(maxCap)))
	}
	return Build(g, func(u, k int) int64 {
		lo, _ := g.EdgeRange(u)
		return caps[lo+int64(k)]
	}, 0, n-1)
}

// Reset restores all residual capacities, heights and excesses.
func (nw *Network) Reset() {
	copy(nw.cap, nw.orig)
	for i := range nw.nodes {
		nw.nodes[i].height = 0
		nw.nodes[i].excess = 0
	}
}

// Bytes returns the heap footprint of the network's arrays, by capacity:
// what a byte-budgeted cache holding the network should charge for it.
func (nw *Network) Bytes() int64 {
	return int64(cap(nw.off)+cap(nw.cap)+cap(nw.rev)+cap(nw.orig))*8 +
		int64(cap(nw.head))*4 +
		int64(cap(nw.nodes))*int64(unsafe.Sizeof(node{}))
}

// Arcs returns u's arc index range.
func (nw *Network) Arcs(u int) (lo, hi int64) { return nw.off[u], nw.off[u+1] }

// FlowValue returns the current excess at the sink (the max-flow value once
// no active node below height n remains).
func (nw *Network) FlowValue() int64 { return nw.nodes[nw.Sink].excess }

// CheckPreflow validates preflow invariants and capacity constraints:
// residual capacities within [0, cap+reverse-original], non-negative
// excess everywhere, and pairwise consistency of arc pairs.
func (nw *Network) CheckPreflow() error {
	for a := range nw.cap {
		if nw.cap[a] < 0 {
			return errf("negative residual capacity on arc %d", a)
		}
		pairSum := nw.cap[a] + nw.cap[nw.rev[a]]
		origSum := nw.orig[a] + nw.orig[nw.rev[a]]
		if pairSum != origSum {
			return errf("arc pair %d capacity not conserved: %d != %d", a, pairSum, origSum)
		}
	}
	for u := range nw.nodes {
		if u == nw.Source {
			continue
		}
		if nw.nodes[u].excess < 0 {
			return errf("negative excess at node %d", u)
		}
	}
	// Excess consistency: net inflow per node equals its excess.
	inflow := make([]int64, nw.N)
	for u := 0; u < nw.N; u++ {
		lo, hi := nw.Arcs(u)
		for a := lo; a < hi; a++ {
			f := nw.orig[a] - nw.cap[a] // flow on arc a (may be negative: reverse-direction flow)
			if f > 0 {
				inflow[nw.head[a]] += f
				inflow[u] -= f
			}
		}
	}
	for u := 0; u < nw.N; u++ {
		if u == nw.Source {
			continue
		}
		if inflow[u] != nw.nodes[u].excess {
			return errf("node %d: inflow %d != excess %d", u, inflow[u], nw.nodes[u].excess)
		}
	}
	return nil
}

func errf(format string, args ...any) error {
	return fmt.Errorf("pfp: "+format, args...)
}
