package graph

import (
	"galois/internal/rng"
)

// RandomKOut generates the paper's random-graph input family (§4.2): n
// nodes, each with k out-edges to uniformly random distinct targets
// (excluding self-loops). The result is deterministic in (n, k, seed).
//
// The paper's bfs/mis input is RandomKOut(10M, 5) symmetrized; pfp uses
// RandomKOut(2^23, 4) as a capacity network.
func RandomKOut(n, k int, seed uint64) *CSR {
	if k >= n {
		panic("graph: RandomKOut requires k < n")
	}
	// Every node gets exactly k targets, kept in the order they are drawn,
	// so the CSR is written directly: u's edges are edges[u*k : (u+1)*k].
	offsets := make([]int64, n+1)
	edges := make([]uint32, n*k)
	r := rng.New(seed)
	for u := 0; u < n; u++ {
		lo := u * k
		offsets[u] = int64(lo)
		targets := edges[lo:lo]
	pick:
		for len(targets) < k {
			v := uint32(r.Uint64n(uint64(n)))
			if int(v) == u {
				continue
			}
			for _, w := range targets {
				if w == v {
					continue pick
				}
			}
			targets = append(targets, v)
		}
	}
	offsets[n] = int64(n * k)
	return &CSR{offsets: offsets, edges: edges}
}

// Chain generates a path graph of n nodes (worst case for level-synchronous
// parallelism; used in tests).
func Chain(n int) *CSR {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
		b.AddEdge(i+1, i)
	}
	return b.Build()
}

// Weighted pairs a CSR with per-edge weights (indexed like the edge array).
type Weighted struct {
	*CSR
	// W[e] is the weight of edge index e (see EdgeRange).
	W []uint32
}

// Bytes returns the heap footprint of the topology and the weights, by
// capacity.
func (g *Weighted) Bytes() int64 { return g.CSR.Bytes() + int64(cap(g.W))*4 }

// RandomWeighted generates a symmetrized random k-out graph with uniform
// edge weights in [1, maxW]; the two directions of an undirected edge get
// the same weight. Deterministic in the seed.
func RandomWeighted(n, k int, maxW uint32, seed uint64) *Weighted {
	g := Symmetrize(RandomKOut(n, k, seed))
	w := make([]uint32, g.M())
	for u := 0; u < g.N(); u++ {
		lo, _ := g.EdgeRange(u)
		for i, v := range g.Neighbors(u) {
			a, b := uint64(u), uint64(v)
			if a > b {
				a, b = b, a
			}
			// Key on the undirected pair so both directions agree.
			w[lo+int64(i)] = uint32(rng.Mix64(a<<32|b^seed)%uint64(maxW)) + 1
		}
	}
	return &Weighted{CSR: g, W: w}
}
