package msf

import (
	"fmt"
	"testing"
	"time"

	"galois"
	"galois/internal/graph"
)

// TestScalingGN guards against the quadratic contraction regression: under
// LIFO a re-pushed survivor is popped at once and swallows its neighbours
// one by one, rescanning its whole edge list per merge. It counts work
// rather than timing it. At one thread the speculative run never conflicts
// and its counts are a pure function of the input; every edge a task scans
// acquires the components at its ends, so the mark operations per commit
// measure the scan. Per doubling of the graph, FIFO contraction grows them
// by about 1.1× (238 → 262 → 297 from 2 500 to 10 000 nodes); LIFO doubles
// them (6 365 → 12 806 → 25 434 from 1 250 to 5 000).
func TestScalingGN(t *testing.T) {
	prev := 0.0
	for _, n := range []int{2500, 5000, 10000} {
		g := graph.Symmetrize(graph.RandomKOut(n, 5, 42))
		st := Galois(g.N(), RandomWeights(g, 1000, 7), galois.WithThreads(1)).Stats
		perCommit := float64(st.AtomicOps) / float64(st.Commits)
		t.Logf("n=%d: %d commits, %.1f mark operations per commit", n, st.Commits, perCommit)
		if st.Aborts != 0 {
			t.Fatalf("n=%d: %d aborts at one thread", n, st.Aborts)
		}
		if prev > 0 && perCommit > 1.5*prev {
			t.Fatalf("superlinear contraction: n=%d costs %.1f mark operations per commit, %.1f at half the size", n, perCommit, prev)
		}
		prev = perCommit
	}
}

func TestScalingGD(t *testing.T) {
	g := graph.Symmetrize(graph.RandomKOut(8000, 5, 42))
	edges := RandomWeights(g, 1000, 7)
	start := time.Now()
	r := Galois(g.N(), edges, galois.WithSched(galois.Deterministic))
	el := time.Since(start)
	fmt.Printf("g-d n=8000: %s (rounds %d)\n", el, r.Stats.Rounds)
	if el > 2*time.Minute {
		t.Fatalf("deterministic msf too slow: %s", el)
	}
	want := Seq(g.N(), edges)
	if r.Fingerprint() != want.Fingerprint() {
		t.Fatal("MSF mismatch at scale")
	}
}
