package mis

import (
	"testing"

	"galois"
	"galois/internal/coredet"
	"galois/internal/graph"
)

func testGraph() *graph.CSR {
	return graph.Symmetrize(graph.RandomKOut(3000, 5, 42))
}

func TestSeqValid(t *testing.T) {
	g := testGraph()
	r := Seq(g)
	if err := r.Check(g); err != nil {
		t.Fatal(err)
	}
	if r.Size() == 0 {
		t.Fatal("empty MIS")
	}
}

func TestSeqOnTriangle(t *testing.T) {
	b := graph.NewBuilder(3)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		b.AddEdge(e[0], e[1])
		b.AddEdge(e[1], e[0])
	}
	g := b.Build()
	r := Seq(g)
	if err := r.Check(g); err != nil {
		t.Fatal(err)
	}
	if r.Size() != 1 || !r.InSet[0] {
		t.Fatalf("lex-first MIS of triangle should be {0}, got size %d", r.Size())
	}
}

func TestSeqOnEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(5).Build() // no edges
	r := Seq(g)
	if r.Size() != 5 {
		t.Fatalf("MIS of edgeless graph = %d, want all 5", r.Size())
	}
}

func TestPBBSEqualsSeq(t *testing.T) {
	// The prefix-based algorithm computes exactly the lexicographically
	// first MIS, i.e. Seq's answer, for every thread count.
	g := testGraph()
	want := Seq(g).Fingerprint()
	for _, threads := range []int{1, 2, 4, 8} {
		r := PBBS(g, threads)
		if err := r.Check(g); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if got := r.Fingerprint(); got != want {
			t.Fatalf("threads=%d: fingerprint %x != seq %x", threads, got, want)
		}
	}
}

func TestGaloisNondetValid(t *testing.T) {
	g := testGraph()
	for _, threads := range []int{1, 4, 8} {
		r := Galois(g, galois.WithThreads(threads))
		if err := r.Check(g); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
	}
}

func TestGaloisDetValidAndPortable(t *testing.T) {
	// The central on-demand determinism claim on a schedule-sensitive
	// output: the DIG-scheduled MIS must be identical for every thread
	// count (but need not equal the lex-first MIS).
	g := testGraph()
	ref := Galois(g, galois.WithThreads(1), galois.WithSched(galois.Deterministic))
	if err := ref.Check(g); err != nil {
		t.Fatal(err)
	}
	want := ref.Fingerprint()
	for _, threads := range []int{2, 3, 4, 8} {
		r := Galois(g, galois.WithThreads(threads), galois.WithSched(galois.Deterministic))
		if err := r.Check(g); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if got := r.Fingerprint(); got != want {
			t.Fatalf("threads=%d: fingerprint %x != %x", threads, got, want)
		}
	}
}

func TestGaloisDetRepeatable(t *testing.T) {
	g := graph.Symmetrize(graph.RandomKOut(1000, 4, 7))
	a := Galois(g, galois.WithThreads(8), galois.WithSched(galois.Deterministic))
	b := Galois(g, galois.WithThreads(8), galois.WithSched(galois.Deterministic))
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("repeated deterministic runs differ")
	}
}

func TestContinuationDoesNotChangeOutput(t *testing.T) {
	g := graph.Symmetrize(graph.RandomKOut(1000, 4, 9))
	with := Galois(g, galois.WithThreads(4), galois.WithSched(galois.Deterministic))
	without := Galois(g, galois.WithThreads(4), galois.WithSched(galois.Deterministic),
		galois.WithoutContinuation())
	if with.Fingerprint() != without.Fingerprint() {
		t.Fatal("continuation optimization changed the MIS")
	}
}

func TestGaloisDetOnDenseGraph(t *testing.T) {
	// Heavier conflicts: ~32 neighbours a node.
	g := graph.Symmetrize(graph.RandomKOut(1024, 16, 3))
	r := Galois(g, galois.WithThreads(4), galois.WithSched(galois.Deterministic))
	if err := r.Check(g); err != nil {
		t.Fatal(err)
	}
	if r.Stats.Aborts == 0 {
		t.Fatal("expected round conflicts on a hub-heavy graph")
	}
}

func TestCheckDetectsViolations(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	g := b.Build()
	bad := &Result{InSet: []bool{true, true, true}}
	if bad.Check(g) == nil {
		t.Fatal("independence violation not detected")
	}
	bad = &Result{InSet: []bool{false, false, false}}
	if bad.Check(g) == nil {
		t.Fatal("maximality violation not detected")
	}
}

func TestPThreadValid(t *testing.T) {
	g := testGraph()
	for _, enabled := range []bool{false, true} {
		for _, threads := range []int{1, 4} {
			r := PThread(g, threads, coredet.New(enabled, 5000))
			if err := r.Check(g); err != nil {
				t.Fatalf("enabled=%v threads=%d: %v", enabled, threads, err)
			}
			// The prefix algorithm computes the lex-first MIS
			// regardless of scheduling (monotone writes).
			if r.Fingerprint() != Seq(g).Fingerprint() {
				t.Fatalf("enabled=%v threads=%d: not the lex-first MIS", enabled, threads)
			}
		}
	}
}

func TestPThreadSyncLight(t *testing.T) {
	// The data-parallel MIS performs far fewer serialized ops per unit
	// of work than a sync-per-edge code — the reason it survives
	// CoreDet in Figure 6.
	g := testGraph()
	rt := coredet.New(true, 5000)
	PThread(g, 4, rt)
	if rt.SyncOps() > uint64(g.N()) {
		t.Fatalf("sync ops %d > nodes %d — too fine-grained", rt.SyncOps(), g.N())
	}
}
