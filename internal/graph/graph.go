// Package graph provides the graph substrate for the irregular benchmarks:
// a compact CSR (compressed sparse row) topology, edge-list builders,
// deterministic random generators for the paper's inputs, and a simple
// binary interchange format.
//
// Topology is separated from per-node algorithm state: applications allocate
// their own node arrays (embedding galois.Lockable) indexed by node id, so
// one loaded topology can serve many algorithm variants.
package graph

import "fmt"

// CSR is an immutable directed graph in compressed sparse row form. Node
// ids are dense in [0, N()).
type CSR struct {
	// offsets has length N()+1; the out-edges of node u are
	// edges[offsets[u]:offsets[u+1]].
	offsets []int64
	edges   []uint32
}

// N returns the number of nodes.
func (g *CSR) N() int { return len(g.offsets) - 1 }

// M returns the number of directed edges.
func (g *CSR) M() int { return len(g.edges) }

// Degree returns the out-degree of node u.
func (g *CSR) Degree(u int) int { return int(g.offsets[u+1] - g.offsets[u]) }

// Neighbors returns the out-neighbors of u. The returned slice aliases the
// graph's storage and must not be modified.
func (g *CSR) Neighbors(u int) []uint32 { return g.edges[g.offsets[u]:g.offsets[u+1]] }

// EdgeRange returns the edge-index range [lo, hi) of u's out-edges, for use
// with per-edge payload arrays maintained by applications.
func (g *CSR) EdgeRange(u int) (lo, hi int64) { return g.offsets[u], g.offsets[u+1] }

// Bytes returns the heap footprint of the graph's arrays, by capacity: what
// a byte-budgeted cache holding the graph should charge for it.
func (g *CSR) Bytes() int64 { return int64(cap(g.offsets))*8 + int64(cap(g.edges))*4 }

// String summarizes the graph.
func (g *CSR) String() string { return fmt.Sprintf("graph(n=%d, m=%d)", g.N(), g.M()) }

// Builder accumulates directed edges and produces a CSR.
type Builder struct {
	n    int
	srcs []uint32
	dsts []uint32
}

// NewBuilder returns a builder for a graph with n nodes.
func NewBuilder(n int) *Builder { return &Builder{n: n} }

// AddEdge appends the directed edge (u, v). It panics on out-of-range ids.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	b.srcs = append(b.srcs, uint32(u))
	b.dsts = append(b.dsts, uint32(v))
}

// Build produces the CSR. Edges keep insertion order within each node's
// adjacency list (counting sort by source), which keeps construction
// deterministic for deterministic edge streams.
func (b *Builder) Build() *CSR {
	offsets := make([]int64, b.n+1)
	for _, u := range b.srcs {
		offsets[u+1]++
	}
	for i := 0; i < b.n; i++ {
		offsets[i+1] += offsets[i]
	}
	edges := make([]uint32, len(b.srcs))
	cursor := make([]int64, b.n)
	copy(cursor, offsets[:b.n])
	for i, u := range b.srcs {
		edges[cursor[u]] = b.dsts[i]
		cursor[u]++
	}
	return &CSR{offsets: offsets, edges: edges}
}

// Symmetrize returns the undirected closure of g: for every edge (u,v) both
// (u,v) and (v,u) are present, self-loops are dropped, and duplicate edges
// are removed. Adjacency lists come out sorted.
func Symmetrize(g *CSR) *CSR {
	n := g.N()
	// Count degrees of the symmetrized multigraph first.
	offsets := make([]int64, n+1)
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) == u {
				continue
			}
			offsets[u+1]++
			offsets[v+1]++
		}
	}
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	edges := make([]uint32, offsets[n])
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) == u {
				continue
			}
			edges[cursor[u]] = v
			cursor[u]++
			edges[cursor[v]] = uint32(u)
			cursor[v]++
		}
	}
	// Sort and dedupe each adjacency list in place, compacting the lists
	// toward the front: the write cursor w never passes the read cursor, and
	// lo keeps u's old start, which offsets[u] then overwrites.
	w, lo := int64(0), int64(0)
	for u := 0; u < n; u++ {
		hi := offsets[u+1]
		adj := edges[lo:hi]
		sortU32(adj)
		offsets[u] = w
		var prev uint32 = ^uint32(0)
		for _, v := range adj {
			if v != prev {
				edges[w] = v
				w++
				prev = v
			}
		}
		lo = hi
	}
	offsets[n] = w
	// An exact-size copy, so Bytes charges only the deduplicated edges.
	out := make([]uint32, w)
	copy(out, edges)
	return &CSR{offsets: offsets, edges: out}
}

// sortU32 sorts a small-to-medium uint32 slice (insertion sort below a
// threshold, simple quicksort above) without allocating.
func sortU32(a []uint32) {
	if len(a) < 24 {
		for i := 1; i < len(a); i++ {
			v := a[i]
			j := i - 1
			for j >= 0 && a[j] > v {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = v
		}
		return
	}
	pivot := a[len(a)/2]
	lo, hi := 0, len(a)-1
	for lo <= hi {
		for a[lo] < pivot {
			lo++
		}
		for a[hi] > pivot {
			hi--
		}
		if lo <= hi {
			a[lo], a[hi] = a[hi], a[lo]
			lo++
			hi--
		}
	}
	sortU32(a[:hi+1])
	sortU32(a[lo:])
}
