package core

import (
	"testing"
	"testing/quick"
)

func policy(n int) windowPolicy { return newWindowPolicy(n, Defaults()) }

func TestWindowDefaults(t *testing.T) {
	w := policy(6400)
	if w.size != 100 {
		t.Fatalf("initial = %d, want n/64 = 100", w.size)
	}
	w = policy(10)
	if w.size != defaultWindowMin {
		t.Fatalf("small-n initial = %d, want floor %d", w.size, defaultWindowMin)
	}
}

func TestWindowNextClampsToRemaining(t *testing.T) {
	w := policy(6400)
	if got := w.next(42); got != 42 {
		t.Fatalf("next(42) = %d", got)
	}
	if got := w.next(1000); got != 100 {
		t.Fatalf("next(1000) = %d", got)
	}
}

func TestWindowGrowsOnHighCommitRatio(t *testing.T) {
	w := policy(6400)
	before := w.size
	w.update(before, before) // 100% commits
	if w.size != 2*before {
		t.Fatalf("size = %d, want doubled %d", w.size, 2*before)
	}
}

func TestWindowShrinksProportionally(t *testing.T) {
	w := policy(6400)
	w.update(400, 40) // 10% commits, target 95%
	ratio := 0.10 / 0.95
	want := int(400*ratio) + 1 // 43, above the floor
	if w.size != want {
		t.Fatalf("size = %d, want %d", w.size, want)
	}
}

func TestWindowFloorHolds(t *testing.T) {
	w := policy(6400)
	for i := 0; i < 50; i++ {
		w.update(w.size, 0+1) // nearly everything fails
	}
	if w.size < defaultWindowMin {
		t.Fatalf("size %d below floor %d", w.size, defaultWindowMin)
	}
}

func TestWindowCapHolds(t *testing.T) {
	w := policy(1 << 30)
	for i := 0; i < 64; i++ {
		w.update(w.size, w.size)
	}
	if w.size > windowMax {
		t.Fatalf("size %d above cap %d", w.size, windowMax)
	}
}

func TestWindowGrowthUsesAttemptedWhenClamped(t *testing.T) {
	w := policy(6400) // size 100
	// A clamped round attempted more than the policy size (can happen
	// after failed tasks re-enter); doubling uses the larger base.
	w.update(300, 300)
	if w.size != 600 {
		t.Fatalf("size = %d, want 600", w.size)
	}
}

func TestWindowPureFunctionOfHistory(t *testing.T) {
	// Two policies fed the same (attempted, committed) history always
	// agree — the portability argument in miniature.
	property := func(seed int64) bool {
		a, b := policy(100000), policy(100000)
		x := uint64(seed)
		for i := 0; i < 50; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			att := int(x%1000) + 1
			com := int(x>>32) % (att + 1)
			a.update(att, com)
			b.update(att, com)
			if a.size != b.size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInterleavePermuteIsPermutation(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 100, 1000} {
		for _, w0 := range []int{0, 1, 4, 16, 99, 1000} {
			in := make([]int, n)
			for i := range in {
				in[i] = i
			}
			out := interleavePermute(in, w0)
			if len(out) != n {
				t.Fatalf("n=%d w0=%d: length %d", n, w0, len(out))
			}
			seen := make([]bool, n)
			for _, v := range out {
				if seen[v] {
					t.Fatalf("n=%d w0=%d: duplicate %d", n, w0, v)
				}
				seen[v] = true
			}
		}
	}
}

// TestInterleaveSrcMatchesAppendReference checks the analytic inverse
// against the obvious bucket construction: deal sources round-robin into
// ceil(n/w0) buckets and concatenate. interleaveSrc must reproduce that
// concatenation slot for slot — it is the single definition generation
// formation derives from.
func TestInterleaveSrcMatchesAppendReference(t *testing.T) {
	for _, n := range []int{3, 4, 5, 17, 64, 100, 1000, 1023} {
		for _, w0 := range []int{1, 2, 3, 4, 16, 63, 99, 999} {
			buckets := interleaveBuckets(n, w0)
			if buckets <= 1 {
				continue
			}
			ref := make([]int, 0, n)
			for b := 0; b < buckets; b++ {
				for src := b; src < n; src += buckets {
					ref = append(ref, src)
				}
			}
			for p := 0; p < n; p++ {
				if got := interleaveSrc(p, n, buckets); got != ref[p] {
					t.Fatalf("n=%d w0=%d p=%d: src %d, reference %d", n, w0, p, got, ref[p])
				}
			}
		}
	}
}

// TestFormGenerationMatchesNaiveReference is the formation half of the
// differential claim. Every thread count forms generations with the same
// fused pass, so comparing runs cannot cross-check fill, interleave or id
// assignment; this test does, against a reference that shares no code with
// formGeneration or interleaveSrc: deal the sources round-robin into
// ceil(n/w0) buckets, concatenate, number the slots from 1, and leave no
// task a child. Every worker count, over a recycled arena that still holds
// the previous generation and its children. The bucket count is set from
// w0 directly rather than through beginGeneration, whose window floor
// would lift w0 = 1 and 3 to defaultWindowMin.
func TestFormGenerationMatchesNaiveReference(t *testing.T) {
	st := &engState[int]{}
	r := newRoundExecutor(st)
	for _, n := range []int{0, 1, 2, 3, 17, 100, 1000, 1023} {
		for _, w0 := range []int{1, 3, 16, 99, 5000} {
			for _, interleave := range []bool{true, false} {
				ref := make([]int, 0, n)
				buckets := 1
				if interleave && n > 2 && w0 < n {
					buckets = (n + w0 - 1) / w0
				}
				for b := 0; b < buckets; b++ {
					for src := b; src < n; src += buckets {
						ref = append(ref, 1000+src)
					}
				}
				items := make([]int, n)
				for i := range items {
					items[i] = 1000 + i
				}
				for _, threads := range []int{1, 2, 3, 8} {
					r.nthreads = threads
					r.formSrc, r.formN = items, n
					r.buckets = 1
					if interleave {
						r.buckets = interleaveBuckets(n, w0)
					}
					r.arena = st.free.take(n)
					for tid := threads - 1; tid >= 0; tid-- {
						r.formGeneration(tid)
					}
					for p := 0; p < n; p++ {
						task := &r.arena.tasks[p]
						if task.rec.ID() != uint64(p)+1 || r.arena.order[p] != task || task.item != ref[p] || len(task.children) != 0 {
							t.Fatalf("n=%d w0=%d interleave=%v threads=%d slot %d: id %d item %d in order %v children %d, want id %d item %d no children",
								n, w0, interleave, threads, p,
								task.rec.ID(), task.item, r.arena.order[p] == task, len(task.children), p+1, ref[p])
						}
					}
					// Leave children behind for the next formation to clear.
					for p := range r.arena.tasks[:n] {
						r.arena.tasks[p].children = append(r.arena.tasks[p].children, -1)
					}
					st.free.put(r.arena)
				}
			}
		}
	}
}

func TestInterleavePermuteSpreadsNeighbors(t *testing.T) {
	// Originally adjacent items must land in different w0-sized windows.
	n, w0 := 1024, 64
	in := make([]int, n)
	for i := range in {
		in[i] = i
	}
	out := interleavePermute(in, w0)
	pos := make([]int, n)
	for p, v := range out {
		pos[v] = p
	}
	for i := 0; i+1 < n; i++ {
		if pos[i]/w0 == pos[i+1]/w0 {
			t.Fatalf("adjacent items %d,%d share window %d", i, i+1, pos[i]/w0)
		}
	}
}

// interleavePermute applies the locality interleave out of place, the form
// the window tests use. The scheduler itself reads interleaveSrc per output
// slot.
func interleavePermute[S ~[]E, E any](tasks S, w0 int) S {
	n := len(tasks)
	buckets := interleaveBuckets(n, w0)
	if buckets <= 1 {
		return tasks
	}
	out := make(S, n)
	for p := range out {
		out[p] = tasks[interleaveSrc(p, n, buckets)]
	}
	return out
}
