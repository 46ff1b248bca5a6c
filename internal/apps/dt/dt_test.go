package dt

import (
	"runtime"
	"testing"

	"galois"
	"galois/internal/geom"
	"galois/internal/mesh"
)

const testSeed = 5

func testPoints(n int) []geom.Point { return geom.UniformPoints(n, 77) }

func TestSeqProducesDelaunay(t *testing.T) {
	r := Seq(testPoints(800), testSeed)
	if r.Inserted != 800 {
		t.Fatalf("inserted %d of 800", r.Inserted)
	}
	if err := mesh.CheckConforming(r.Root); err != nil {
		t.Fatal(err)
	}
	if err := mesh.CheckDelaunay(r.Root); err != nil {
		t.Fatal(err)
	}
}

func TestGaloisNondetMatchesSeq(t *testing.T) {
	// A run's workers are capped at GOMAXPROCS; raise it so the 4- and
	// 8-thread runs have that many workers.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	pts := testPoints(600)
	want := Seq(pts, testSeed).Fingerprint()
	for _, threads := range []int{1, 2, 4, 8} {
		r := Galois(pts, testSeed, galois.WithThreads(threads))
		if err := mesh.CheckConforming(r.Root); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if err := mesh.CheckDelaunay(r.Root); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if got := r.Fingerprint(); got != want {
			// The DT of points in general position is unique, so
			// even the non-deterministic variant must match.
			t.Fatalf("threads=%d: fingerprint %x != seq %x", threads, got, want)
		}
	}
}

func TestGaloisDetMatchesSeqAndIsPortable(t *testing.T) {
	pts := testPoints(600)
	want := Seq(pts, testSeed).Fingerprint()
	var refStats galois.Stats
	for i, threads := range []int{1, 2, 4, 8} {
		r := Galois(pts, testSeed, galois.WithThreads(threads), galois.WithSched(galois.Deterministic))
		if err := mesh.CheckDelaunay(r.Root); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if got := r.Fingerprint(); got != want {
			t.Fatalf("threads=%d: fingerprint mismatch", threads)
		}
		// The schedule itself (commits, rounds) must be identical
		// across thread counts.
		if i == 0 {
			refStats = r.Stats
		} else {
			if r.Stats.Commits != refStats.Commits || r.Stats.Rounds != refStats.Rounds ||
				r.Stats.Aborts != refStats.Aborts {
				t.Fatalf("threads=%d: schedule differs: %v vs %v", threads, r.Stats, refStats)
			}
		}
	}
}

func TestGaloisBaselineSchedulerSameSchedule(t *testing.T) {
	pts := testPoints(400)
	with := Galois(pts, testSeed, galois.WithThreads(4), galois.WithSched(galois.Deterministic))
	without := Galois(pts, testSeed, galois.WithThreads(4), galois.WithSched(galois.Deterministic),
		galois.WithoutContinuation())
	if with.Fingerprint() != without.Fingerprint() {
		t.Fatal("continuation optimization changed the mesh")
	}
	if with.Stats.Commits != without.Stats.Commits || with.Stats.Rounds != without.Stats.Rounds {
		t.Fatalf("continuation optimization changed the schedule: %v vs %v", with.Stats, without.Stats)
	}
}

func TestPBBSMatchesSeqAndIsPortable(t *testing.T) {
	pts := testPoints(600)
	want := Seq(pts, testSeed).Fingerprint()
	var ref *Result
	for _, threads := range []int{1, 2, 8} {
		r := PBBS(pts, testSeed, threads, 64, nil)
		if err := mesh.CheckDelaunay(r.Root); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if got := r.Fingerprint(); got != want {
			t.Fatalf("threads=%d: fingerprint mismatch", threads)
		}
		if ref == nil {
			ref = r
		} else if r.Stats.Commits != ref.Stats.Commits || r.Stats.Rounds != ref.Stats.Rounds {
			t.Fatalf("threads=%d: reservation schedule differs", threads)
		}
	}
}

func TestDuplicatePointsSkipped(t *testing.T) {
	pts := testPoints(200)
	pts = append(pts, pts[:50]...) // 50 duplicates
	r := Galois(pts, testSeed, galois.WithThreads(4), galois.WithSched(galois.Deterministic))
	if r.Inserted != 200 {
		t.Fatalf("inserted %d, want 200", r.Inserted)
	}
	if err := mesh.CheckDelaunay(r.Root); err != nil {
		t.Fatal(err)
	}
	want := Seq(testPoints(200), testSeed).Fingerprint()
	if r.Fingerprint() != want {
		t.Fatal("duplicates changed the triangulation")
	}
}

func TestTriangleCount(t *testing.T) {
	// 2n+1 triangles for n interior points (counting super triangles),
	// so n points yield 2n+1 total live triangles and the interior count
	// excludes those touching super vertices.
	pts := testPoints(300)
	r := Galois(pts, testSeed, galois.WithThreads(4))
	if got := mesh.CountTriangles(r.Root, false); got != 2*300+1 {
		t.Fatalf("total triangles = %d, want %d", got, 601)
	}
}

func TestGaloisDetAbortsExist(t *testing.T) {
	// Early rounds inspect many tasks that all conflict on the tiny
	// mesh, so the deterministic variant must record aborts even on one
	// thread (paper §5.1).
	r := Galois(testPoints(300), testSeed, galois.WithThreads(1), galois.WithSched(galois.Deterministic))
	if r.Stats.Aborts == 0 {
		t.Fatal("expected aborts in single-threaded DIG dt")
	}
}
