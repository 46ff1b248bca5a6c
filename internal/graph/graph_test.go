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
