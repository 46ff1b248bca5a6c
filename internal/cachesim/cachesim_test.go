package cachesim

import (
	"sync"
	"testing"

	"galois/internal/marks"
)

func TestColdMissesOnly(t *testing.T) {
	tr := NewTracer(1)
	locs := make([]marks.Lockable, 100)
	for i := range locs {
		tr.Touch(0, &locs[i])
	}
	rep := tr.Analyze(8)
	if rep.Accesses != 100 || rep.ColdMisses != 100 || rep.CapacityMisses != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.DRAMRequests() != 100 {
		t.Fatalf("dram = %d", rep.DRAMRequests())
	}
}

func TestImmediateReuseHits(t *testing.T) {
	tr := NewTracer(1)
	var l marks.Lockable
	for i := 0; i < 10; i++ {
		tr.Touch(0, &l)
	}
	rep := tr.Analyze(2)
	if rep.ColdMisses != 1 || rep.CapacityMisses != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.MeanReuseDistance != 0 {
		t.Fatalf("mean distance = %v, want 0", rep.MeanReuseDistance)
	}
}

func TestCyclicSweepDistances(t *testing.T) {
	// Sweeping k distinct locations twice gives each re-access a reuse
	// distance of exactly k-1.
	const k = 32
	tr := NewTracer(1)
	locs := make([]marks.Lockable, k)
	for pass := 0; pass < 2; pass++ {
		for i := range locs {
			tr.Touch(0, &locs[i])
		}
	}
	// Cache of k locations: distance k-1 < k, so all re-accesses hit.
	rep := tr.Analyze(k)
	if rep.CapacityMisses != 0 {
		t.Fatalf("cache=%d: capacity misses = %d, want 0", k, rep.CapacityMisses)
	}
	if rep.MeanReuseDistance != k-1 {
		t.Fatalf("mean distance = %v, want %d", rep.MeanReuseDistance, k-1)
	}
	// Cache smaller than the sweep: every re-access misses (the classic
	// LRU worst case).
	rep = tr.Analyze(k - 1)
	if rep.CapacityMisses != k {
		t.Fatalf("cache=%d: capacity misses = %d, want %d", k-1, rep.CapacityMisses, k)
	}
}

func TestStackPropertyMonotoneInCacheSize(t *testing.T) {
	// LRU is a stack algorithm: misses are non-increasing in cache size.
	tr := NewTracer(1)
	locs := make([]marks.Lockable, 64)
	// Pseudo-random but deterministic pattern.
	x := uint64(1)
	for i := 0; i < 5000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		tr.Touch(0, &locs[x%64])
	}
	prev := ^uint64(0)
	for _, cs := range []int{1, 2, 4, 8, 16, 32, 64} {
		m := tr.Analyze(cs).DRAMRequests()
		if m > prev {
			t.Fatalf("misses increased with cache size at %d: %d > %d", cs, m, prev)
		}
		prev = m
	}
}

func TestMultiThreadMergeOrder(t *testing.T) {
	// Accesses from different threads are merged in global (sequence)
	// order; interleaved touches of one location from two threads are
	// all reuses after the first.
	tr := NewTracer(2)
	var l marks.Lockable
	tr.Touch(0, &l)
	tr.Touch(1, &l)
	tr.Touch(0, &l)
	tr.Touch(1, &l)
	rep := tr.Analyze(4)
	if rep.Accesses != 4 || rep.ColdMisses != 1 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestTemporalSplitIncreasesDistance(t *testing.T) {
	// Model of the paper's §5.4 argument: a task touches its neighborhood
	// twice. If the two touches are adjacent (non-deterministic
	// execution), reuse distances are small; if all first touches happen
	// before all second touches (inspect/execute split), distances grow
	// with the round size and blow past the cache.
	const tasks = 256
	const cache = 16

	adjacent := NewTracer(1)
	locsA := make([]marks.Lockable, tasks)
	for i := range locsA {
		adjacent.Touch(0, &locsA[i])
		adjacent.Touch(0, &locsA[i])
	}
	split := NewTracer(1)
	locsB := make([]marks.Lockable, tasks)
	for i := range locsB {
		split.Touch(0, &locsB[i])
	}
	for i := range locsB {
		split.Touch(0, &locsB[i])
	}
	a := adjacent.Analyze(cache)
	b := split.Analyze(cache)
	if a.CapacityMisses != 0 {
		t.Fatalf("adjacent touches should all hit, got %d misses", a.CapacityMisses)
	}
	if b.CapacityMisses != tasks {
		t.Fatalf("split touches should all miss, got %d", b.CapacityMisses)
	}
}

// TestSpanReplay: a span holds exactly the accesses between Begin and End,
// later appends to its thread's buffer never reach it, and another thread
// may replay it once End has happened before (here, a join).
func TestSpanReplay(t *testing.T) {
	tr := NewTracer(2)
	locs := make([]marks.Lockable, 6)
	var wg sync.WaitGroup
	for tid := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.Touch(tid, &locs[5]) // before the span
			tr.Begin(tid)
			tr.Touch(tid, &locs[2*tid])
			tr.Touch(tid, &locs[2*tid+1])
			tr.End(tid, tid)
			for range 100 {
				tr.Touch(tid, &locs[5]) // after it, growing the buffer
			}
		}()
	}
	wg.Wait()
	before := len(tr.buffers[1])
	tr.Replay(1, 0) // thread 0's span, replayed on thread 1
	replayed := tr.buffers[1][before:]
	if len(replayed) != 2 || replayed[0].loc != &locs[0] || replayed[1].loc != &locs[1] {
		t.Fatalf("replay recorded %d accesses, want the span's 2, in order", len(replayed))
	}
}
