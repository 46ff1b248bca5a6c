package dmr

import (
	"testing"

	"galois"
	"galois/internal/mesh"
)

func smallInput(t *testing.T) *mesh.Element {
	t.Helper()
	root := MakeInput(300, 3)
	if err := mesh.CheckConforming(root); err != nil {
		t.Fatalf("input mesh broken: %v", err)
	}
	return root
}

func TestMakeInputHasBadTriangles(t *testing.T) {
	root := smallInput(t)
	if len(badTriangles(root, DefaultQuality())) == 0 {
		t.Fatal("random input mesh has no bad triangles — benchmark would be trivial")
	}
}

func TestSeqRefines(t *testing.T) {
	q := DefaultQuality()
	r := Seq(smallInput(t), q)
	if err := r.Check(q); err != nil {
		t.Fatal(err)
	}
	if r.Stats.Commits == 0 {
		t.Fatal("no work recorded")
	}
}

func TestGaloisNondetRefines(t *testing.T) {
	q := DefaultQuality()
	for _, threads := range []int{1, 4, 8} {
		r := Galois(smallInput(t), q, galois.WithThreads(threads))
		if err := r.Check(q); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
	}
}

func TestGaloisDetPortable(t *testing.T) {
	// The refined mesh depends on the schedule; under DIG it must be
	// bit-identical for every thread count — the paper's portability
	// property on its flagship application.
	q := DefaultQuality()
	ref := Galois(smallInput(t), q, galois.WithThreads(1), galois.WithSched(galois.Deterministic))
	if err := ref.Check(q); err != nil {
		t.Fatal(err)
	}
	want := ref.Fingerprint()
	for _, threads := range []int{2, 4, 8} {
		r := Galois(smallInput(t), q, galois.WithThreads(threads), galois.WithSched(galois.Deterministic))
		if err := r.Check(q); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if got := r.Fingerprint(); got != want {
			t.Fatalf("threads=%d: refined mesh differs (%x vs %x)", threads, got, want)
		}
		if r.Stats.Commits != ref.Stats.Commits || r.Stats.Rounds != ref.Stats.Rounds {
			t.Fatalf("threads=%d: schedule differs", threads)
		}
	}
}

func TestGaloisNondetRunsVary(t *testing.T) {
	// Sanity check of the premise: without DIG, different runs are free
	// to (and on multiple threads essentially always do) produce
	// different refined meshes. If ten runs all collide, something is
	// suspiciously synchronized.
	q := DefaultQuality()
	first := Galois(smallInput(t), q, galois.WithThreads(8)).Fingerprint()
	varied := false
	for i := 0; i < 9 && !varied; i++ {
		varied = Galois(smallInput(t), q, galois.WithThreads(8)).Fingerprint() != first
	}
	if !varied {
		t.Log("warning: 10 non-deterministic runs produced identical meshes; not failing, but unexpected")
	}
}

func TestContinuationTransparency(t *testing.T) {
	q := DefaultQuality()
	with := Galois(smallInput(t), q, galois.WithThreads(4), galois.WithSched(galois.Deterministic))
	without := Galois(smallInput(t), q, galois.WithThreads(4), galois.WithSched(galois.Deterministic),
		galois.WithoutContinuation())
	if with.Fingerprint() != without.Fingerprint() {
		t.Fatal("continuation optimization changed the refined mesh")
	}
}

func TestPBBSRefinesAndIsPortable(t *testing.T) {
	q := DefaultQuality()
	ref := PBBS(smallInput(t), q, 1, 256, nil)
	if err := ref.Check(q); err != nil {
		t.Fatal(err)
	}
	want := ref.Fingerprint()
	for _, threads := range []int{2, 8} {
		r := PBBS(smallInput(t), q, threads, 256, nil)
		if err := r.Check(q); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if r.Fingerprint() != want {
			t.Fatalf("threads=%d: PBBS refined mesh differs", threads)
		}
	}
}

func TestSegmentSplitsHappen(t *testing.T) {
	// Refinement of a boundary-heavy input must split segments: verify
	// the final mesh has more segments than the initial four.
	q := DefaultQuality()
	r := Seq(MakeInput(50, 9), q)
	nseg := 0
	for _, e := range mesh.Live(r.Root) {
		if e.IsSegment() {
			nseg++
		}
	}
	if nseg <= 4 {
		t.Skipf("no segment splits on this input (segments=%d)", nseg)
	}
	if err := r.Check(q); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicAcrossRepeats(t *testing.T) {
	q := DefaultQuality()
	a := Galois(smallInput(t), q, galois.WithThreads(8), galois.WithSched(galois.Deterministic))
	b := Galois(smallInput(t), q, galois.WithThreads(8), galois.WithSched(galois.Deterministic))
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("repeated deterministic runs differ")
	}
}
