package graph

import (
	"sort"
	"testing"
	"testing/quick"

	"galois/internal/rng"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g := b.Build()
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if g.Degree(0) != 2 || g.Degree(1) != 0 || g.Degree(2) != 1 {
		t.Fatalf("degrees wrong: %d %d %d", g.Degree(0), g.Degree(1), g.Degree(2))
	}
	nb := g.Neighbors(0)
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 2 {
		t.Fatalf("neighbors(0) = %v", nb)
	}
}

func TestBuilderPreservesInsertionOrder(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(1, 0)
	g := b.Build()
	nb := g.Neighbors(1)
	if nb[0] != 2 || nb[1] != 0 {
		t.Fatalf("insertion order not preserved: %v", nb)
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

func TestEdgeRange(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(1, 2)
	g := b.Build()
	lo, hi := g.EdgeRange(1)
	if lo != 1 || hi != 3 {
		t.Fatalf("range = [%d,%d)", lo, hi)
	}
}

func checkSymmetric(t *testing.T, g *CSR) {
	t.Helper()
	type edge struct{ u, v int }
	set := map[edge]bool{}
	for u := 0; u < g.N(); u++ {
		prev := -1
		for _, v := range g.Neighbors(u) {
			if int(v) == u {
				t.Fatal("self-loop present")
			}
			if int(v) <= prev {
				t.Fatal("adjacency not sorted/deduped")
			}
			prev = int(v)
			set[edge{u, int(v)}] = true
		}
	}
	for e := range set {
		if !set[edge{e.v, e.u}] {
			t.Fatalf("missing reverse edge of (%d,%d)", e.u, e.v)
		}
	}
}

func TestSymmetrize(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate after symmetrization
	b.AddEdge(2, 2) // self loop dropped
	b.AddEdge(3, 4)
	b.AddEdge(3, 4) // parallel edge deduped
	g := Symmetrize(b.Build())
	checkSymmetric(t, g)
	if g.M() != 4 { // (0,1),(1,0),(3,4),(4,3)
		t.Fatalf("m = %d, want 4", g.M())
	}
}

func TestSymmetrizeProperty(t *testing.T) {
	property := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(40)
		b := NewBuilder(n)
		m := r.Intn(120)
		for i := 0; i < m; i++ {
			b.AddEdge(r.Intn(n), r.Intn(n))
		}
		g := Symmetrize(b.Build())
		// Symmetric, no self loops, sorted unique lists.
		for u := 0; u < g.N(); u++ {
			prev := -1
			for _, v := range g.Neighbors(u) {
				if int(v) == u || int(v) <= prev {
					return false
				}
				prev = int(v)
				found := false
				for _, w := range g.Neighbors(int(v)) {
					if int(w) == u {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomKOutShape(t *testing.T) {
	g := RandomKOut(100, 5, 1)
	if g.N() != 100 || g.M() != 500 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) != 5 {
			t.Fatalf("degree(%d) = %d", u, g.Degree(u))
		}
		seen := map[uint32]bool{}
		for _, v := range g.Neighbors(u) {
			if int(v) == u {
				t.Fatal("self loop")
			}
			if seen[v] {
				t.Fatal("duplicate target")
			}
			seen[v] = true
		}
	}
}

func TestRandomKOutDeterministic(t *testing.T) {
	a := RandomKOut(200, 4, 7)
	b := RandomKOut(200, 4, 7)
	c := RandomKOut(200, 4, 8)
	same := func(x, y *CSR) bool {
		if x.N() != y.N() || x.M() != y.M() {
			return false
		}
		for u := 0; u < x.N(); u++ {
			xn, yn := x.Neighbors(u), y.Neighbors(u)
			for i := range xn {
				if xn[i] != yn[i] {
					return false
				}
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("same seed produced different graphs")
	}
	if same(a, c) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestChain(t *testing.T) {
	g := Chain(5)
	if g.M() != 8 {
		t.Fatalf("m = %d", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(2) != 2 || g.Degree(4) != 1 {
		t.Fatal("chain degrees wrong")
	}
}

func TestSortU32(t *testing.T) {
	r := rng.New(4)
	for trial := 0; trial < 50; trial++ {
		n := r.Intn(200)
		a := make([]uint32, n)
		for i := range a {
			a[i] = uint32(r.Uint64n(50))
		}
		want := append([]uint32(nil), a...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		sortU32(a)
		for i := range a {
			if a[i] != want[i] {
				t.Fatalf("trial %d: sortU32 mismatch at %d", trial, i)
			}
		}
	}
}

func TestRandomWeightedSymmetricWeights(t *testing.T) {
	g := RandomWeighted(500, 4, 100, 9)
	if len(g.W) != g.M() {
		t.Fatalf("weights %d != edges %d", len(g.W), g.M())
	}
	weightOf := func(u int, v uint32) uint32 {
		lo, _ := g.EdgeRange(u)
		for i, w := range g.Neighbors(u) {
			if w == v {
				return g.W[lo+int64(i)]
			}
		}
		t.Fatalf("edge (%d,%d) missing", u, v)
		return 0
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			wuv := weightOf(u, v)
			wvu := weightOf(int(v), uint32(u))
			if wuv != wvu || wuv < 1 || wuv > 100 {
				t.Fatalf("asymmetric or out-of-range weight (%d,%d): %d vs %d", u, v, wuv, wvu)
			}
		}
	}
}

// builderKOut is RandomKOut as it was first written, through the Builder,
// and builderSymmetrize is Symmetrize's definition (per-node lists, sorted
// and deduplicated) through the Builder: the references the direct CSR
// writers must match byte for byte.
func builderKOut(n, k int, seed uint64) *CSR {
	b := NewBuilder(n)
	r := rng.New(seed)
	targets := make([]uint32, 0, k)
	for u := 0; u < n; u++ {
		targets = targets[:0]
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
		for _, v := range targets {
			b.AddEdge(u, int(v))
		}
	}
	return b.Build()
}

func builderSymmetrize(g *CSR) *CSR {
	n := g.N()
	adj := make([][]uint32, n)
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) != u {
				adj[u] = append(adj[u], v)
				adj[v] = append(adj[v], uint32(u))
			}
		}
	}
	out := NewBuilder(n)
	for u, a := range adj {
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		for i, v := range a {
			if i == 0 || v != a[i-1] {
				out.AddEdge(u, int(v))
			}
		}
	}
	return out.Build()
}

// sameCSR reports whether x and y have equal offsets and edges, and equal
// capacities, so that Bytes agrees too.
func sameCSR(x, y *CSR) bool {
	if x.Bytes() != y.Bytes() || len(x.offsets) != len(y.offsets) || len(x.edges) != len(y.edges) {
		return false
	}
	for i := range x.offsets {
		if x.offsets[i] != y.offsets[i] {
			return false
		}
	}
	for i := range x.edges {
		if x.edges[i] != y.edges[i] {
			return false
		}
	}
	return true
}

// TestDirectCSRMatchesBuilder: RandomKOut and Symmetrize write their CSR
// directly, and must produce exactly what the Builder path produces — the
// same arrays at the same capacities — on the k-out family the inputs use
// and on arbitrary multigraphs with self-loops and duplicate edges.
func TestDirectCSRMatchesBuilder(t *testing.T) {
	for _, n := range []int{6, 10, 100, 2000, 20000} {
		for _, k := range []int{1, 4, 5} {
			for seed := uint64(1); seed <= 3; seed++ {
				g := RandomKOut(n, k, seed)
				if !sameCSR(g, builderKOut(n, k, seed)) {
					t.Fatalf("RandomKOut(%d, %d, %d) differs from the Builder path", n, k, seed)
				}
				if !sameCSR(Symmetrize(g), builderSymmetrize(g)) {
					t.Fatalf("Symmetrize(RandomKOut(%d, %d, %d)) differs from the Builder path", n, k, seed)
				}
			}
		}
	}
	r := rng.New(11)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(40)
		b := NewBuilder(n)
		for i, m := 0, r.Intn(150); i < m; i++ {
			b.AddEdge(r.Intn(n), r.Intn(n))
		}
		g := b.Build()
		if !sameCSR(Symmetrize(g), builderSymmetrize(g)) {
			t.Fatalf("trial %d: Symmetrize differs from the Builder path", trial)
		}
	}
}
