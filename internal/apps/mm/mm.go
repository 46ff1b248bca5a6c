// Package mm implements maximal matching, the PBBS benchmark the paper
// excludes from its study only "because of its similarity to maximal
// independent set" (§4.1). It is included here as a library extension in
// the same four-variant structure; its tasks are edges rather than nodes,
// which exercises two-location neighborhoods under every scheduler.
//
//   - Seq: greedy matching in edge order (the lexicographically first
//     maximal matching).
//   - PBBS: deterministic reservations over edges — computes exactly the
//     lex-first matching for every thread count.
//   - Galois (non-deterministic or DIG-scheduled): one task per edge,
//     acquiring both endpoints; the matching depends on the schedule, so
//     DIG portability is observable.
package mm

import (
	"fmt"
	"hash/fnv"

	"galois"
	"galois/internal/detres"
	"galois/internal/graph"
	"galois/internal/stats"
)

// NoMatch marks an unmatched node.
const NoMatch = ^uint32(0)

// Edge is an undirected edge (U < V).
type Edge struct {
	U, V uint32
}

// EdgesOf enumerates the undirected edges of a symmetrized graph (u < v),
// in adjacency order — a deterministic function of the graph.
func EdgesOf(g *graph.CSR) []Edge {
	var edges []Edge
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if uint32(u) < v {
				edges = append(edges, Edge{U: uint32(u), V: v})
			}
		}
	}
	return edges
}

// Result is the output of one matching run.
type Result struct {
	// Mate[v] is v's matched partner (NoMatch if unmatched).
	Mate []uint32
	// Stats describes the run.
	Stats stats.Stats
}

// Size returns the number of matched edges.
func (r *Result) Size() int {
	n := 0
	for v, m := range r.Mate {
		if m != NoMatch && uint32(v) < m {
			n++
		}
	}
	return n
}

// Fingerprint hashes the mate array.
func (r *Result) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, m := range r.Mate {
		buf[0], buf[1], buf[2], buf[3] = byte(m), byte(m>>8), byte(m>>16), byte(m>>24)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Check verifies matching consistency and maximality against g.
func (r *Result) Check(g *graph.CSR) error {
	for v, m := range r.Mate {
		if m == NoMatch {
			continue
		}
		if int(m) >= len(r.Mate) {
			return fmt.Errorf("mm: node %d matched out of range (%d)", v, m)
		}
		if r.Mate[m] != uint32(v) {
			return fmt.Errorf("mm: asymmetric match %d->%d but %d->%d", v, m, m, r.Mate[m])
		}
		// Must be an actual edge.
		found := false
		for _, w := range g.Neighbors(v) {
			if w == m {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("mm: matched pair (%d,%d) is not an edge", v, m)
		}
	}
	// Maximality: every edge has a matched endpoint.
	for u := 0; u < g.N(); u++ {
		if r.Mate[u] != NoMatch {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if r.Mate[v] == NoMatch {
				return fmt.Errorf("mm: edge (%d,%d) addable — matching not maximal", u, v)
			}
		}
	}
	return nil
}

// Seq computes the lexicographically-first maximal matching greedily.
func Seq(g *graph.CSR) *Result {
	mate := make([]uint32, g.N())
	for i := range mate {
		mate[i] = NoMatch
	}
	col := stats.NewCollector(1)
	col.Start()
	for _, e := range EdgesOf(g) {
		if mate[e.U] == NoMatch && mate[e.V] == NoMatch {
			mate[e.U] = e.V
			mate[e.V] = e.U
		}
		col.Commit(0)
	}
	col.Stop()
	return &Result{Mate: mate, Stats: col.Snapshot()}
}

// node carries the per-endpoint lock and match state for the Galois and
// PBBS variants.
type node struct {
	galois.Lockable
	mate uint32
}

// pbbsStep adapts matching to deterministic reservations: item i is edge i;
// reserving both endpoints with the edge's index as priority makes the
// committed matching exactly the greedy (lex-first) one.
type pbbsStep struct {
	edges []Edge
	nodes []node
}

func (s *pbbsStep) Reserve(i int, r *detres.Reserver) bool {
	e := s.edges[i]
	nu, nv := &s.nodes[e.U], &s.nodes[e.V]
	if nu.mate != NoMatch || nv.mate != NoMatch {
		return false // already covered; nothing to do
	}
	r.Reserve(&nu.Lockable)
	r.Reserve(&nv.Lockable)
	return true
}

func (s *pbbsStep) Commit(i int) {
	e := s.edges[i]
	// Both endpoints were free at reserve time and this item held both
	// reservations, so no lower-priority edge can have matched them.
	s.nodes[e.U].mate = e.V
	s.nodes[e.V].mate = e.U
}

// PBBS computes the lex-first maximal matching with deterministic
// reservations on nthreads threads.
func PBBS(g *graph.CSR, nthreads int) *Result {
	edges := EdgesOf(g)
	s := &pbbsStep{edges: edges, nodes: make([]node, g.N())}
	for i := range s.nodes {
		s.nodes[i].mate = NoMatch
	}
	st := detres.For(len(edges), s, detres.Options{Threads: nthreads})
	mate := make([]uint32, g.N())
	for i := range s.nodes {
		mate[i] = s.nodes[i].mate
	}
	return &Result{Mate: mate, Stats: st}
}

// Galois runs the edge-task matching under the given scheduler options. The
// commit handler is built once and finds its edge through Ctx.Item.
//
// The speculative variant takes no worklist hint (the default chunked
// LIFO): tasks create no children, and any order yields a maximal
// matching, so the cheapest worklist is the right one.
func Galois(g *graph.CSR, opts ...galois.Option) *Result {
	edges := EdgesOf(g)
	nodes := make([]node, g.N())
	for i := range nodes {
		nodes[i].mate = NoMatch
	}
	match := func(c *galois.Ctx[Edge]) {
		e := c.Item()
		nodes[e.U].mate = e.V
		nodes[e.V].mate = e.U
	}
	st := galois.ForEach(edges, func(ctx *galois.Ctx[Edge], e Edge) {
		nu, nv := &nodes[e.U], &nodes[e.V]
		ctx.Acquire(&nu.Lockable)
		ctx.Acquire(&nv.Lockable)
		if nu.mate != NoMatch || nv.mate != NoMatch {
			return // covered; no-op commit
		}
		ctx.OnCommit(match)
	}, opts...)
	mate := make([]uint32, g.N())
	for i := range nodes {
		mate[i] = nodes[i].mate
	}
	return &Result{Mate: mate, Stats: st}
}
