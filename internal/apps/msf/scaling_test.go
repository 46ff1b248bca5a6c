package msf

import (
	"testing"

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

// TestScalingGD is TestScalingGN's bound for the deterministic scheduler:
// mark operations per commit may grow by at most 1.5× per doubling of the
// graph. A g-d run's counts are a pure function of its input, and at one
// thread its mark operations are too. From 250 to 8 000 nodes they are
// 1 402, 1 535, 2 055, 1 932, 1 902 and 2 427 per commit (×1.09, ×1.34,
// ×0.94, ×0.98, ×1.28). A contraction that stops pruning the edges inside
// a component doubles them per doubling (39 613 → 81 444 → 166 273 from
// 125 to 500 nodes) and fails at 500. Every size's forest must equal
// Kruskal's.
func TestScalingGD(t *testing.T) {
	prev := 0.0
	for _, n := range []int{250, 500, 1000, 2000, 4000, 8000} {
		g := graph.Symmetrize(graph.RandomKOut(n, 5, 42))
		edges := RandomWeights(g, 1000, 7)
		r := Galois(g.N(), edges, galois.WithSched(galois.Deterministic), galois.WithThreads(1))
		st := r.Stats
		perCommit := float64(st.AtomicOps) / float64(st.Commits)
		t.Logf("n=%d: %d commits, %d rounds, %.1f mark operations per commit", n, st.Commits, st.Rounds, perCommit)
		if r.Fingerprint() != Seq(g.N(), edges).Fingerprint() {
			t.Fatalf("n=%d: MSF differs from Kruskal's", n)
		}
		if prev > 0 && perCommit > 1.5*prev {
			t.Fatalf("superlinear contraction: n=%d costs %.1f mark operations per commit, %.1f at half the size", n, perCommit, prev)
		}
		prev = perCommit
	}
}
