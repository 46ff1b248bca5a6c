package msf

import (
	"testing"

	"galois"
	"galois/internal/graph"
)

func testInput() (int, []WEdge) {
	g := graph.Symmetrize(graph.RandomKOut(2000, 4, 42))
	return g.N(), RandomWeights(g, 1000, 7)
}

func TestUniqueKeys(t *testing.T) {
	_, edges := testInput()
	seen := map[uint64]bool{}
	for _, e := range edges {
		if seen[e.Key] {
			t.Fatal("duplicate edge key")
		}
		seen[e.Key] = true
	}
}

func TestSeqOnTinyGraph(t *testing.T) {
	// Triangle with weights 1, 2, 3: MSF = the two lightest edges.
	edges := []WEdge{
		{Key: 1<<32 | 0, U: 0, V: 1},
		{Key: 2<<32 | 1, U: 1, V: 2},
		{Key: 3<<32 | 2, U: 0, V: 2},
	}
	r := Seq(3, edges)
	if len(r.Chosen) != 2 || r.TotalWeight != 3 {
		t.Fatalf("chosen=%d weight=%d", len(r.Chosen), r.TotalWeight)
	}
}

func TestForestOnDisconnectedGraph(t *testing.T) {
	// Two disjoint edges: the forest has both.
	edges := []WEdge{
		{Key: 5<<32 | 0, U: 0, V: 1},
		{Key: 7<<32 | 1, U: 2, V: 3},
	}
	for _, r := range []*Result{Seq(4, edges), Galois(4, edges, galois.WithThreads(2)), PBBS(4, edges, 2)} {
		if len(r.Chosen) != 2 || r.TotalWeight != 12 {
			t.Fatalf("chosen=%d weight=%d", len(r.Chosen), r.TotalWeight)
		}
	}
}

func TestGaloisMatchesKruskal(t *testing.T) {
	n, edges := testInput()
	want := Seq(n, edges)
	for _, threads := range []int{1, 4, 8} {
		got := Galois(n, edges, galois.WithThreads(threads))
		if got.TotalWeight != want.TotalWeight {
			t.Fatalf("threads=%d: weight %d != kruskal %d", threads, got.TotalWeight, want.TotalWeight)
		}
		if got.Fingerprint() != want.Fingerprint() {
			// Unique weights => unique MSF: the edge SETS must match.
			t.Fatalf("threads=%d: edge set differs from kruskal", threads)
		}
	}
}

func TestGaloisDetMatchesKruskalAndIsPortable(t *testing.T) {
	n, edges := testInput()
	want := Seq(n, edges)
	var ref galois.Stats
	for i, threads := range []int{1, 2, 8} {
		got := Galois(n, edges, galois.WithThreads(threads), galois.WithSched(galois.Deterministic))
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("threads=%d: edge set differs", threads)
		}
		if i == 0 {
			ref = got.Stats
		} else if got.Stats.Commits != ref.Commits || got.Stats.Rounds != ref.Rounds {
			t.Fatalf("threads=%d: schedule differs", threads)
		}
	}
}

func TestPBBSMatchesKruskal(t *testing.T) {
	n, edges := testInput()
	want := Seq(n, edges)
	for _, threads := range []int{1, 4} {
		got := PBBS(n, edges, threads)
		if got.TotalWeight != want.TotalWeight || got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("threads=%d: PBBS MSF differs from kruskal (%d vs %d)",
				threads, got.TotalWeight, want.TotalWeight)
		}
	}
}

func TestSpanningTreeSize(t *testing.T) {
	// The test graph is connected with overwhelming probability: the
	// forest must have exactly n-1 edges.
	n, edges := testInput()
	r := Seq(n, edges)
	if len(r.Chosen) != n-1 {
		t.Fatalf("chosen %d edges, want %d (graph disconnected?)", len(r.Chosen), n-1)
	}
}

func TestContinuationTransparency(t *testing.T) {
	n, edges := testInput()
	a := Galois(n, edges, galois.WithThreads(4), galois.WithSched(galois.Deterministic))
	b := Galois(n, edges, galois.WithThreads(4), galois.WithSched(galois.Deterministic),
		galois.WithoutContinuation())
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("continuation optimization changed the MSF")
	}
}

func TestGaloisOnGridGraph(t *testing.T) {
	const side = 20
	b := graph.NewBuilder(side * side)
	for v := 0; v < side*side; v++ {
		if v%side+1 < side {
			b.AddEdge(v, v+1)
			b.AddEdge(v+1, v)
		}
		if v+side < side*side {
			b.AddEdge(v, v+side)
			b.AddEdge(v+side, v)
		}
	}
	g := b.Build()
	edges := RandomWeights(g, 100, 3)
	want := Seq(g.N(), edges)
	got := Galois(g.N(), edges, galois.WithThreads(4), galois.WithSched(galois.Deterministic))
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatal("grid MSF differs")
	}
}

func TestEmptyEdgeSet(t *testing.T) {
	r := Galois(5, nil, galois.WithThreads(2))
	if len(r.Chosen) != 0 || r.TotalWeight != 0 {
		t.Fatalf("nonempty result for edgeless graph: %+v", r)
	}
}
