package detres

import (
	"fmt"
	"sync/atomic"
	"testing"

	"galois/internal/marks"
	"galois/internal/rng"
)

// counterStep increments shared cells; each item reserves the cells it
// touches. The final non-commutative fold exposes the execution order.
type counterStep struct {
	cells   []marks.Lockable
	values  []uint64
	touches [][]int
	commits atomic.Int64
}

func newCounterStep(ncells, nitems int, seed uint64) *counterStep {
	r := rng.New(seed)
	s := &counterStep{
		cells:   make([]marks.Lockable, ncells),
		values:  make([]uint64, ncells),
		touches: make([][]int, nitems),
	}
	for i := range s.touches {
		n := 1 + r.Intn(3)
		for j := 0; j < n; j++ {
			s.touches[i] = append(s.touches[i], r.Intn(ncells))
		}
	}
	return s
}

func (s *counterStep) Reserve(i int, r *Reserver) bool {
	for _, c := range s.touches[i] {
		r.Reserve(&s.cells[c])
	}
	return true
}

func (s *counterStep) Commit(i int) {
	for _, c := range s.touches[i] {
		s.values[c] = s.values[c]*31 + uint64(i+1)
	}
	s.commits.Add(1)
}

func (s *counterStep) fingerprint() uint64 {
	var h uint64 = 1469598103934665603
	for _, v := range s.values {
		h = (h ^ v) * 1099511628211
	}
	return h
}

func TestAllItemsCommitExactlyOnce(t *testing.T) {
	for _, threads := range []int{1, 4, 8} {
		s := newCounterStep(32, 2000, 1)
		st := For(2000, s, Options{Threads: threads, Granularity: 128})
		if got := s.commits.Load(); got != 2000 {
			t.Fatalf("threads=%d: %d commits, want 2000", threads, got)
		}
		if st.Commits != 2000 {
			t.Fatalf("threads=%d: stats commits = %d", threads, st.Commits)
		}
	}
}

func TestDeterministicAcrossThreadCounts(t *testing.T) {
	ref := newCounterStep(32, 2000, 2)
	refStats := For(2000, ref, Options{Threads: 1, Granularity: 128})
	for _, threads := range []int{2, 4, 8} {
		s := newCounterStep(32, 2000, 2)
		st := For(2000, s, Options{Threads: threads, Granularity: 128})
		if s.fingerprint() != ref.fingerprint() {
			t.Fatalf("threads=%d: execution order differs", threads)
		}
		if st.Rounds != refStats.Rounds || st.Commits != refStats.Commits || st.Aborts != refStats.Aborts {
			t.Fatalf("threads=%d: schedule differs: %v vs %v", threads, st, refStats)
		}
	}
}

func TestPriorityOrderRespected(t *testing.T) {
	// All items share one cell: commits must occur in strict index order
	// (minimum index wins every round).
	s := newCounterStep(1, 300, 3)
	for i := range s.touches {
		s.touches[i] = []int{0}
	}
	For(300, s, Options{Threads: 4, Granularity: 64})
	var want uint64
	for i := 0; i < 300; i++ {
		want = want*31 + uint64(i+1)
	}
	if s.values[0] != want {
		t.Fatalf("fold = %x, want strict index order %x", s.values[0], want)
	}
}

// abandonStep abandons every odd item at reserve time.
type abandonStep struct {
	counterStep
}

func (s *abandonStep) Reserve(i int, r *Reserver) bool {
	if i%2 == 1 {
		return false
	}
	return s.counterStep.Reserve(i, r)
}

func TestAbandonedItemsCountAsDone(t *testing.T) {
	s := &abandonStep{*newCounterStep(16, 500, 4)}
	st := For(500, s, Options{Threads: 4, Granularity: 100})
	if got := s.commits.Load(); got != 250 {
		t.Fatalf("commits = %d, want 250", got)
	}
	if st.Commits != 500 { // abandoned count as committed work items
		t.Fatalf("stats commits = %d, want 500", st.Commits)
	}
}

func TestRampGrowsRounds(t *testing.T) {
	// With ramping, round sizes grow with commits; total rounds must be
	// far below items/granularity for a conflict-free workload.
	n := 10_000
	s := newCounterStep(100_000, n, 5)
	for i := range s.touches {
		s.touches[i] = []int{i * 7 % 100_000} // all distinct: no conflicts
	}
	st := For(n, s, Options{Threads: 4, Granularity: 16, Ramp: true})
	// Round sizes grow by 9/8 per conflict-free round: ~log_{9/8}(n/16)
	// rounds, far below the n/16 of the fixed policy.
	if st.Rounds > 80 {
		t.Fatalf("ramped rounds = %d, expected logarithmic growth", st.Rounds)
	}
	noRamp := newCounterStep(100_000, n, 5)
	for i := range noRamp.touches {
		noRamp.touches[i] = []int{i * 7 % 100_000}
	}
	st2 := For(n, noRamp, Options{Threads: 4, Granularity: 16})
	if st2.Rounds != uint64((n+15)/16) {
		t.Fatalf("fixed rounds = %d, want %d", st2.Rounds, (n+15)/16)
	}
}

func TestStatsAbortsOnConflicts(t *testing.T) {
	// All items share a cell and arrive in one big round: everything but
	// the winner aborts each round.
	s := newCounterStep(1, 64, 6)
	for i := range s.touches {
		s.touches[i] = []int{0}
	}
	st := For(64, s, Options{Threads: 4, Granularity: 64})
	if st.Aborts == 0 {
		t.Fatal("expected aborts under total conflict")
	}
	if st.Rounds != 64 {
		t.Fatalf("rounds = %d, want 64 (one commit per round)", st.Rounds)
	}
}

// TestCellsReusableAcrossLoops: reservations are never un-marked; a later
// loop over the same cells must see them all free, i.e. produce what it
// produces on fresh cells.
func TestCellsReusableAcrossLoops(t *testing.T) {
	fresh := newCounterStep(8, 200, 7)
	For(200, fresh, Options{Threads: 4, Granularity: 32})

	reused := newCounterStep(8, 200, 7)
	For(200, reused, Options{Threads: 4, Granularity: 32})
	for i := range reused.values {
		reused.values[i] = 0
	}
	st := For(200, reused, Options{Threads: 2, Granularity: 32})
	if reused.fingerprint() != fresh.fingerprint() || st.Commits != 200 {
		t.Fatalf("second loop over used cells: fingerprint %x (commits %d), fresh cells give %x",
			reused.fingerprint(), st.Commits, fresh.fingerprint())
	}
}

func TestRepeatability(t *testing.T) {
	fps := map[uint64]bool{}
	for rep := 0; rep < 3; rep++ {
		s := newCounterStep(16, 1000, 8)
		For(1000, s, Options{Threads: 8, Granularity: 64})
		fps[s.fingerprint()] = true
	}
	if len(fps) != 1 {
		t.Fatalf("got %d distinct outcomes across repeats", len(fps))
	}
}

func ExampleFor() {
	// Reserve-and-commit over a shared counter: deterministic total
	// regardless of thread count.
	var cell marks.Lockable
	total := 0
	step := stepFuncs{
		reserve: func(i int, r *Reserver) bool { r.Reserve(&cell); return true },
		commit:  func(i int) { total += i },
	}
	For(10, step, Options{Threads: 4})
	fmt.Println(total)
	// Output: 45
}

type stepFuncs struct {
	reserve func(int, *Reserver) bool
	commit  func(int)
}

func (s stepFuncs) Reserve(i int, r *Reserver) bool { return s.reserve(i, r) }
func (s stepFuncs) Commit(i int)                    { s.commit(i) }
