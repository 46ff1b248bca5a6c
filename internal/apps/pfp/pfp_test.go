package pfp

import (
	"testing"

	"galois"
	"galois/internal/graph"
)

func smallNetwork(seed uint64) *Network {
	return RandomNetwork(800, 4, 100, seed)
}

func TestBuildPairsArcs(t *testing.T) {
	nw := smallNetwork(1)
	for a := range nw.cap {
		r := nw.rev[a]
		if nw.rev[r] != int64(a) {
			t.Fatalf("rev not involutive at %d", a)
		}
		if nw.head[nw.rev[a]] == nw.head[a] {
			t.Fatalf("arc %d and its reverse share a head", a)
		}
	}
}

func TestHandBuiltNetwork(t *testing.T) {
	// s=0 -> 1 -> 3=t with a parallel path through 2; max flow 7.
	// Edges grouped by source so the cap list below matches Build's
	// per-node consumption order.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1) // cap 4
	b.AddEdge(0, 2) // cap 3
	b.AddEdge(1, 3) // cap 5
	b.AddEdge(1, 2) // cap 1
	b.AddEdge(2, 3) // cap 4
	caps := []int64{4, 3, 5, 1, 4}
	i := 0
	nw := Build(b.Build(), func(u, k int) int64 { v := caps[i]; i++; return v }, 0, 3)
	if got := Dinic(nw); got != 7 {
		t.Fatalf("dinic = %d, want 7", got)
	}
	val, _ := Seq(nw)
	if val != 7 {
		t.Fatalf("seq = %d, want 7", val)
	}
	if err := nw.CheckPreflow(); err != nil {
		t.Fatal(err)
	}
}

func TestSeqMatchesDinic(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		nw := smallNetwork(seed)
		want := Dinic(nw)
		got, st := Seq(nw)
		if got != want {
			t.Fatalf("seed %d: seq=%d dinic=%d", seed, got, want)
		}
		if err := nw.CheckPreflow(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if st.Commits == 0 {
			t.Fatal("no discharges recorded")
		}
		if want == 0 {
			t.Fatalf("seed %d: trivial instance (flow 0)", seed)
		}
	}
}

func TestGaloisNondetMatchesDinic(t *testing.T) {
	for _, threads := range []int{1, 4, 8} {
		nw := smallNetwork(7)
		want := Dinic(nw)
		got, _ := Galois(nw, galois.WithThreads(threads))
		if got != want {
			t.Fatalf("threads=%d: galois=%d dinic=%d", threads, got, want)
		}
		if err := nw.CheckPreflow(); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
	}
}

func TestGaloisDetMatchesDinicAndIsPortable(t *testing.T) {
	nw := smallNetwork(9)
	want := Dinic(nw)
	type snap struct {
		commits, rounds uint64
	}
	var ref *snap
	for _, threads := range []int{1, 2, 4, 8} {
		nw.Reset()
		got, st := Galois(nw, galois.WithThreads(threads), galois.WithSched(galois.Deterministic))
		if got != want {
			t.Fatalf("threads=%d: det galois=%d dinic=%d", threads, got, want)
		}
		if err := nw.CheckPreflow(); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if ref == nil {
			ref = &snap{commits: st.Commits, rounds: st.Rounds}
		} else if st.Commits != ref.commits || st.Rounds != ref.rounds {
			// The flow value is schedule-independent, but the DIG
			// schedule itself must not depend on thread count.
			t.Fatalf("threads=%d: schedule differs (%d/%d vs %d/%d)",
				threads, st.Commits, st.Rounds, ref.commits, ref.rounds)
		}
	}
}

func TestGaloisDetFinalStatePortable(t *testing.T) {
	// Stronger than the flow value: the entire residual network must be
	// identical across thread counts under DIG.
	ref := smallNetwork(11)
	want := Dinic(ref)
	if _, _ = Galois(ref, galois.WithThreads(1), galois.WithSched(galois.Deterministic)); false {
	}
	for _, threads := range []int{2, 8} {
		nw := smallNetwork(11)
		got, _ := Galois(nw, galois.WithThreads(threads), galois.WithSched(galois.Deterministic))
		if got != want {
			t.Fatalf("flow value mismatch")
		}
		for a := range nw.cap {
			if nw.cap[a] != ref.cap[a] {
				t.Fatalf("threads=%d: residual capacity differs at arc %d", threads, a)
			}
		}
	}
}

func TestContinuationTransparency(t *testing.T) {
	a := smallNetwork(13)
	Galois(a, galois.WithThreads(4), galois.WithSched(galois.Deterministic))
	b := smallNetwork(13)
	Galois(b, galois.WithThreads(4), galois.WithSched(galois.Deterministic), galois.WithoutContinuation())
	for i := range a.cap {
		if a.cap[i] != b.cap[i] {
			t.Fatalf("continuation optimization changed the residual network at arc %d", i)
		}
	}
}

func TestResetRestores(t *testing.T) {
	nw := smallNetwork(3)
	want := Dinic(nw)
	Seq(nw)
	nw.Reset()
	got, _ := Seq(nw)
	if got != want {
		t.Fatalf("after reset: %d != %d", got, want)
	}
}

func TestCheckPreflowDetectsViolation(t *testing.T) {
	nw := smallNetwork(2)
	Seq(nw)
	nw.cap[0] = -1
	if nw.CheckPreflow() == nil {
		t.Fatal("negative capacity not detected")
	}
}

func TestGridNetwork(t *testing.T) {
	const side = 12
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
	nw := Build(g, func(u, k int) int64 { return int64(1 + (u+k)%7) }, 0, g.N()-1)
	want := Dinic(nw)
	got, _ := Galois(nw, galois.WithThreads(4), galois.WithSched(galois.Deterministic))
	if got != want {
		t.Fatalf("grid: %d != %d", got, want)
	}
}
