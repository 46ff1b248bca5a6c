package marks

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"galois/internal/rng"
)

// rec returns a Rec with the given epoch and id.
func rec(e Epoch, id uint64) *Rec {
	r := &Rec{}
	r.Reset(id)
	r.Enter(e)
	return r
}

// holder reports the id that owns l as seen from epoch e (0: unowned).
func holder(l *Lockable, e Epoch) uint64 {
	w := l.word.Load()
	if Epoch(w>>IDBits) != e {
		return 0
	}
	return w & MaxID
}

func TestTryAcquireRelease(t *testing.T) {
	var l Lockable
	a, b := rec(0, 1), rec(0, 2)

	if ok, _ := l.TryAcquire(a); !ok {
		t.Fatal("acquire of free mark failed")
	}
	if ok, _ := l.TryAcquire(a); !ok {
		t.Fatal("re-acquire by owner failed")
	}
	if ok, _ := l.TryAcquire(b); ok {
		t.Fatal("acquire of held mark succeeded")
	}
	l.Release(b) // non-owner: no-op
	if !l.OwnedBy(a) {
		t.Fatal("release by non-owner changed the mark")
	}
	l.Release(a)
	if l.OwnedBy(a) || l.word.Load() != 0 {
		t.Fatal("release did not clear mark")
	}
	if ok, _ := l.TryAcquire(b); !ok {
		t.Fatal("acquire after release failed")
	}
}

func TestWriteMaxBasics(t *testing.T) {
	var l Lockable
	lo, hi := rec(0, 1), rec(0, 2)

	owned, stole, _ := l.WriteMax(lo)
	if !owned || stole != 0 {
		t.Fatalf("WriteMax on free mark: owned=%v stole=%v", owned, stole)
	}
	owned, stole, _ = l.WriteMax(hi)
	if !owned || stole != lo.ID() {
		t.Fatalf("higher id should steal: owned=%v stole=%v", owned, stole)
	}
	owned, stole, _ = l.WriteMax(lo)
	if owned || stole != 0 {
		t.Fatalf("lower id should lose: owned=%v stole=%v", owned, stole)
	}
	if !l.OwnedBy(hi) {
		t.Fatal("final holder is not the max id")
	}
	// Owner re-acquire is idempotent.
	owned, stole, _ = l.WriteMax(hi)
	if !owned || stole != 0 {
		t.Fatalf("owner re-acquire: owned=%v stole=%v", owned, stole)
	}
}

// TestStaleEpochReadsUnowned is the no-clear-pass contract: a word left by
// an older epoch loses to ANY id of a newer one under both protocols, is
// not reported as stolen (its task is long gone), and a zero Lockable is
// unowned in every epoch.
func TestStaleEpochReadsUnowned(t *testing.T) {
	var clock Clock
	old, cur := clock.Next(), clock.Next()

	var l Lockable
	if owned, _, _ := l.WriteMax(rec(old, MaxID)); !owned {
		t.Fatal("zero value not unowned")
	}
	owned, stole, _ := l.WriteMax(rec(cur, 1))
	if !owned || stole != 0 {
		t.Fatalf("lowest id of a newer epoch vs highest id of an older one: owned=%v stole=%d", owned, stole)
	}
	if l.OwnedBy(rec(old, MaxID)) {
		t.Fatal("stale rec still validates")
	}

	var m Lockable
	if ok, _ := m.TryAcquire(rec(old, 7)); !ok {
		t.Fatal("zero value not unowned")
	}
	// Never released — e.g. its run panicked. A later run must not care.
	if ok, ops := m.TryAcquire(rec(cur, 3)); !ok || ops != 2 {
		t.Fatalf("TryAcquire over a stale word: ok=%v ops=%d", ok, ops)
	}
	if ok, _ := m.TryAcquire(rec(cur, 4)); ok {
		t.Fatal("live word of the caller's epoch read as unowned")
	}
}

// TestAscendingIDsKeepWinningWithoutClear pins what the frozen benchmark
// probes rely on: zero-value Recs, Reset to ascending ids, every WriteMax
// wins its mark in one load and one CAS.
func TestAscendingIDsKeepWinningWithoutClear(t *testing.T) {
	var l Lockable
	recs := make([]Rec, 100)
	for i := range recs {
		recs[i].Reset(uint64(i) + 1)
		if owned, _, ops := l.WriteMax(&recs[i]); !owned || ops != 2 {
			t.Fatalf("id %d: owned=%v ops=%d", i+1, owned, ops)
		}
	}
}

// TestWriteMaxPermutationInvariance is the determinism core of the paper's
// Figure 3: the final mark must be the maximum id regardless of the order
// in which tasks write — here with stale words of older epochs, carrying
// arbitrary ids, already sitting in the location.
func TestWriteMaxPermutationInvariance(t *testing.T) {
	var clock Clock
	property := func(ids []uint64, staleID uint64, seed uint64) bool {
		if len(ids) == 0 {
			return true
		}
		var l Lockable
		l.WriteMax(rec(clock.Next(), staleID%MaxID+1))
		e := clock.Next()
		// De-duplicate ids (the protocol requires uniqueness).
		seen := map[uint64]bool{}
		var recs []*Rec
		var maxID uint64
		for _, id := range ids {
			id = id%1000 + 1
			for seen[id] {
				id++
			}
			seen[id] = true
			if id > maxID {
				maxID = id
			}
			recs = append(recs, rec(e, id))
		}
		for _, i := range rng.New(seed).Perm(len(recs)) {
			l.WriteMax(recs[i])
		}
		return holder(&l, e) == maxID
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteMaxHammer: same-epoch contests resolve to the max id under real
// concurrency at 2/4/8 goroutines, over locations pre-loaded with stale
// words, and every displaced id is reported to exactly one stealer.
func TestWriteMaxHammer(t *testing.T) {
	var clock Clock
	for _, goroutines := range []int{2, 4, 8} {
		t.Run(fmt.Sprint(goroutines), func(t *testing.T) {
			const perG = 300
			locs := make([]Lockable, 4)
			for i := range locs {
				locs[i].WriteMax(rec(clock.Next(), MaxID))
			}
			e := clock.Next()
			stolen := make([][]uint64, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						r := rec(e, uint64(i*goroutines+g)+1)
						for li := range locs {
							if _, stole, _ := locs[li].WriteMax(r); stole != 0 {
								stolen[g] = append(stolen[g], stole<<8|uint64(li))
							}
						}
					}
				}(g)
			}
			wg.Wait()
			want := uint64(goroutines * perG)
			for li := range locs {
				if got := holder(&locs[li], e); got != want {
					t.Fatalf("location %d: final holder %d, want %d", li, got, want)
				}
			}
			seen := map[uint64]bool{}
			for _, s := range stolen {
				for _, k := range s {
					if seen[k] {
						t.Fatalf("id %d displaced twice at location %d", k>>8, k&0xff)
					}
					seen[k] = true
				}
			}
		})
	}
}

// TestWriteMaxEqualIDConcurrent races writeMarksMax calls that carry the
// SAME Rec (equal id) against each other and against distinct lower ids.
// Re-acquisition by the owner must always succeed, must never report the
// rec as stolen from itself, and the equal-id race must not corrupt the
// final max: the highest id still ends up holding the mark.
func TestWriteMaxEqualIDConcurrent(t *testing.T) {
	const goroutines = 8
	const iters = 500
	for trial := 0; trial < 20; trial++ {
		var l Lockable
		top := rec(0, 1000)
		lower := make([]*Rec, goroutines)
		for i := range lower {
			lower[i] = rec(0, uint64(i)+1)
		}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					// Even goroutines hammer the shared (equal-id) rec;
					// odd ones contend with their own lower id.
					r := top
					if g%2 == 1 {
						r = lower[g]
					}
					owned, stole, _ := l.WriteMax(r)
					if stole == r.ID() {
						t.Error("WriteMax reported a rec stolen from itself")
						return
					}
					if r == top && !owned {
						t.Error("equal-id re-acquisition by the max rec failed")
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if !l.OwnedBy(top) {
			t.Fatalf("trial %d: final holder %d, want the max-id rec", trial, holder(&l, 0))
		}
	}
}

// TestPreventedWhenMarkLostLater pins the §3.3 protocol edge case: a task
// marks a location, then loses it to a higher id later in the same round.
// The stealer (not the loser) is responsible for flagging the loser, the
// loser's validation must fail, and the flag must not survive into the
// loser's next round.
func TestPreventedWhenMarkLostLater(t *testing.T) {
	var clock Clock
	e := clock.Next()
	var l1, l2 Lockable
	recs := []*Rec{rec(e, 1), rec(e, 2)} // indexed by id-1
	loser, stealer := recs[0], recs[1]

	// The loser inspects its neighborhood {l1, l2} first and owns both.
	for _, l := range []*Lockable{&l1, &l2} {
		owned, stole, _ := l.WriteMax(loser)
		if !owned || stole != 0 {
			t.Fatalf("loser failed to mark an empty location: owned=%v stole=%v", owned, stole)
		}
	}

	// Later in the round the higher-id task touches l2 and displaces it.
	owned, stole, _ := l2.WriteMax(stealer)
	if !owned || stole != loser.ID() {
		t.Fatalf("stealer: owned=%v stole=%v, want owned with the loser displaced", owned, stole)
	}
	recs[stole-1].Prevent() // stealer's obligation

	if !loser.Prevented() {
		t.Fatal("loser not marked Prevented after losing a location it had marked")
	}
	if stealer.Prevented() {
		t.Fatal("stealer spuriously Prevented")
	}

	// Commit-phase validation: the loser still owns l1 but not l2, so it
	// must not pass validation of its full neighborhood.
	if !l1.OwnedBy(loser) {
		t.Fatal("loser lost l1, which nobody contested")
	}
	if l2.OwnedBy(loser) {
		t.Fatal("loser still validates on the stolen location")
	}

	// The loser retries in the next round: entering the new epoch drops
	// the flag and both of last round's marks without a store to either.
	loser.Enter(clock.Next())
	if loser.Prevented() {
		t.Fatal("Prevented flag survived into the next epoch")
	}
	for _, l := range []*Lockable{&l1, &l2} {
		if owned, stole, _ := l.WriteMax(loser); !owned || stole != 0 {
			t.Fatalf("retry over last round's marks: owned=%v stole=%d", owned, stole)
		}
	}
}

// TestZeroRecNotPrevented closes the hole at word 0 in "the flag stores the
// word it applies to": a zero Rec (no epoch, no id, flag word 0) is not
// prevented, and neither is one that was only Reset or only Entered, which
// is how the frozen benchmark probes and core's arena slots start out.
func TestZeroRecNotPrevented(t *testing.T) {
	var zero, idOnly, epochOnly Rec
	idOnly.Reset(7)
	epochOnly.Enter(ClockAfter(0).Next())
	for i, r := range []*Rec{&zero, &idOnly, &epochOnly} {
		if r.Prevented() {
			t.Errorf("Rec %d (zero, Reset only, Enter only) reads as prevented", i)
		}
	}
	idOnly.Prevent()
	if !idOnly.Prevented() {
		t.Error("Prevent on an epoch-0 Rec with an id did not stick")
	}
}

// TestWriteMaxPreventedCover verifies the continuation-optimization
// invariant: after all writes, every rec that does not own all its marks is
// either self-prevented (saw a higher id) or was stolen from (Prevented set
// by the stealer) — so "Prevented clear" == "owns everything it touched".
// The locations and Recs are reused across trials with a fresh epoch each,
// never cleared, as the scheduler reuses them across rounds.
func TestWriteMaxPreventedCover(t *testing.T) {
	const nlocs = 20
	const ntasks = 50
	var clock Clock
	r := rng.New(42)
	locs := make([]Lockable, nlocs)
	recs := make([]Rec, ntasks)
	for i := range recs {
		recs[i].Reset(uint64(i) + 1)
	}
	for trial := 0; trial < 50; trial++ {
		e := clock.Next()
		touched := make([][]int, ntasks)
		for i := range recs {
			n := 1 + r.Intn(4)
			for j := 0; j < n; j++ {
				touched[i] = append(touched[i], r.Intn(nlocs))
			}
		}
		var wg sync.WaitGroup
		for i := range recs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				recs[i].Enter(e)
				for _, li := range touched[i] {
					owned, stole, _ := locs[li].WriteMax(&recs[i])
					if owned {
						if stole != 0 {
							recs[stole-1].Prevent()
						}
					} else {
						recs[i].Prevent()
					}
				}
			}(i)
		}
		wg.Wait()
		for i := range recs {
			ownsAll := true
			for _, li := range touched[i] {
				if !locs[li].OwnedBy(&recs[i]) {
					ownsAll = false
					break
				}
			}
			if ownsAll == recs[i].Prevented() {
				t.Fatalf("trial %d task %d: ownsAll=%v prevented=%v",
					trial, i, ownsAll, recs[i].Prevented())
			}
		}
	}
}

// TestBudgetsFailBeforeAnyMark: both bit-fields refuse to wrap. The clock
// panics on the first epoch past MaxEpoch (and keeps panicking); Reset
// panics on an id past MaxID, leaving the Rec as it was.
func TestBudgetsFailBeforeAnyMark(t *testing.T) {
	var clock Clock
	clock.now.Store(MaxEpoch - 1)
	if e := clock.Next(); e != MaxEpoch {
		t.Fatalf("last epoch = %d, want %d", e, uint64(MaxEpoch))
	}
	for i := 0; i < 2; i++ {
		if msg := panicMessage(func() { clock.Next() }); !strings.Contains(msg, "epoch budget exhausted") {
			t.Fatalf("Next past MaxEpoch: panic %q", msg)
		}
	}

	r := rec(5, MaxID)
	if r.ID() != MaxID {
		t.Fatalf("MaxID did not round-trip: %d", r.ID())
	}
	if msg := panicMessage(func() { r.Reset(MaxID + 1) }); !strings.Contains(msg, "exceeds") {
		t.Fatalf("Reset past MaxID: panic %q", msg)
	}
	if r.ID() != MaxID || r.word>>IDBits != 5 {
		t.Fatal("failed Reset changed the Rec")
	}
}

func panicMessage(fn func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	fn()
	return ""
}
