package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"galois/internal/marks"
	"galois/internal/rng"
)

// slot is a shared location stored by value: the test owns one []slot and
// carries it, marks and all, from run to run.
type slot struct {
	marks.Lockable
	value uint64
}

// slotJob is one task of the epoch workload: it folds id into three slots,
// and a seventh of the tasks push one child, so runs span generations.
type slotJob struct {
	id      uint64
	a, b, c int32
	child   bool
}

const (
	epochSlots = 48
	epochJobs  = 2000
)

func epochJobsFor(seed uint64) []slotJob {
	r := rng.New(seed)
	jobs := make([]slotJob, epochJobs)
	for i := range jobs {
		jobs[i] = slotJob{id: uint64(i) + 1, child: i%7 == 0,
			a: int32(r.Intn(epochSlots)), b: int32(r.Intn(epochSlots)), c: int32(r.Intn(epochSlots))}
	}
	return jobs
}

// runSlots zeroes the slots' values — never their marks — runs the
// workload over them and returns the order-sensitive fingerprint and the
// commit count. hook, if non-nil, runs at the top of every body and every
// commit closure (inCommit tells which).
func runSlots(slots []slot, opt Options, hook func(j slotJob, inCommit bool)) (uint64, uint64) {
	for i := range slots {
		slots[i].value = 0
	}
	st := ForEach(epochJobsFor(5), func(ctx *Ctx[slotJob], j slotJob) {
		if hook != nil {
			hook(j, false)
		}
		sa, sb, sc := &slots[j.a], &slots[j.b], &slots[j.c]
		ctx.Acquire(&sa.Lockable)
		ctx.Acquire(&sb.Lockable)
		ctx.Acquire(&sc.Lockable)
		ctx.OnCommit(func(ctx *Ctx[slotJob]) {
			if hook != nil {
				hook(j, true)
			}
			sa.value = sa.value*31 + j.id
			sb.value = sb.value*37 + j.id
			sc.value = sc.value*41 + j.id
			if j.child {
				ctx.Push(slotJob{id: j.id + epochJobs, a: j.c, b: j.a, c: j.b})
			}
		})
	}, opt)
	var fp uint64 = 1469598103934665603
	for i := range slots {
		fp = (fp ^ slots[i].value) * 1099511628211
	}
	return fp, st.Commits
}

const epochCommits = epochJobs + (epochJobs+6)/7

// untouched reports whether no run ever wrote l's mark word: only the zero
// word lets an epoch-zero Rec in.
func untouched(l *marks.Lockable) bool {
	var probe marks.Rec
	probe.Reset(1)
	ok, _ := l.TryAcquire(&probe)
	l.Release(&probe)
	return ok
}

func panicText(fn func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	fn()
	return ""
}

// TestMarksCarriedAcrossSchedulersAndEngines: one []slot, never cleared,
// goes det → nondet → det on one engine, then to a second engine and back.
// Every deterministic run must produce the fingerprint of a run on fresh
// slots — marks left by ANY earlier run, on any engine, under either
// scheduler, read as unowned — and every speculative run must still commit
// each task exactly once.
func TestMarksCarriedAcrossSchedulersAndEngines(t *testing.T) {
	for _, cont := range []bool{true, false} {
		t.Run(fmt.Sprintf("cont=%v", cont), func(t *testing.T) {
			det := optsFor(Deterministic, 4, func(o *Options) { o.Continuation = cont })
			non := optsFor(NonDeterministic, 4)
			want, commits := runSlots(make([]slot, epochSlots), det, nil)
			if commits != epochCommits {
				t.Fatalf("fresh run: %d commits, want %d", commits, epochCommits)
			}

			engA, engB := NewEngine(4), NewEngine(2)
			defer engA.Close()
			defer engB.Close()
			slots := make([]slot, epochSlots)
			steps := []struct {
				eng *Engine
				opt Options
			}{{engA, det}, {engA, non}, {engA, det}, {engB, det}, {engB, non}, {engA, det}, {engB, det}}
			for i, s := range steps {
				s.opt.Engine = s.eng
				fp, commits := runSlots(slots, s.opt, nil)
				if commits != epochCommits {
					t.Fatalf("step %d (%v): %d commits, want %d", i, s.opt.Sched, commits, epochCommits)
				}
				if s.opt.Sched == Deterministic && fp != want {
					t.Fatalf("step %d: fingerprint %#x on carried slots, %#x on fresh ones", i, fp, want)
				}
			}
		})
	}
}

// TestOperatorPanicLeavesEngineAndMarksReusable: an operator that panics in
// the middle of a round — during a parallel inspect, inside a commit
// closure, or in a batched serial round — reaches the caller with its own
// value, parks no worker for ever, and leaves nothing to clean up: the next
// run on the SAME engine and the SAME slots (marks of the dead round still
// in them) is byte-identical to a clean run.
func TestOperatorPanicLeavesEngineAndMarksReusable(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // four real workers
	cases := []struct {
		name     string
		threads  int
		inCommit bool
		tune     func(*Options)
	}{
		{"inspect/t4", 4, false, func(o *Options) { o.WindowInit = 512 }},
		{"commit/t4", 4, true, func(o *Options) { o.WindowInit = 512 }},
		{"inspect/t4/no-continuation", 4, false, func(o *Options) { o.WindowInit = 512; o.Continuation = false }},
		{"inspect/serial-rounds", 1, false, func(*Options) {}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			opt := optsFor(Deterministic, tc.threads, tc.tune)
			want, _ := runSlots(make([]slot, epochSlots), opt, nil)

			eng := NewEngine(tc.threads)
			opt.Engine = eng
			slots := make([]slot, epochSlots)
			// A hundred jobs in the middle of the generation panic, so the
			// failure lands mid-run with earlier rounds' marks in place and
			// on several workers of one round at once.
			msg := panicText(func() {
				runSlots(slots, opt, func(j slotJob, inCommit bool) {
					if j.id >= 900 && j.id < 1000 && inCommit == tc.inCommit {
						panic("operator bug")
					}
				})
			})
			if msg != "operator bug" {
				t.Fatalf("panic reached the caller as %q", msg)
			}
			for run := 0; run < 2; run++ {
				if got, commits := runSlots(slots, opt, nil); got != want || commits != epochCommits {
					t.Fatalf("run %d after the panic: fingerprint %#x (%d commits), clean run %#x",
						run, got, commits, want)
				}
			}
			eng.Close()
			// Close retires parked workers; one still inside a barrier of
			// the dead run would never see it.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Close, %d before the engine existed — a worker leaked",
						runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestNonDetPanicIsContained: under the speculative scheduler a panic in an
// operator or a commit closure, on the caller's worker (tid 0) or on a pool
// worker, reaches the caller once with its own value. No worker is left
// waiting for the task that will never commit, no goroutine is added, and
// the engine's next runs — on the same slots, the dead run's marks still in
// them — are a deterministic run byte-identical to a fresh one and a
// speculative run that commits every task exactly once.
func TestNonDetPanicIsContained(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // four real workers
	for _, threads := range []int{1, 2, 4} {
		want, _ := runSlots(make([]slot, epochSlots), optsFor(Deterministic, threads), nil)
		victims := []int{0} // the caller
		if threads > 1 {
			victims = append(victims, threads-1) // a pool worker
		}
		for _, victim := range victims {
			for _, inCommit := range []bool{false, true} {
				t.Run(fmt.Sprintf("t%d/tid%d/commit=%v", threads, victim, inCommit), func(t *testing.T) {
					before := settledGoroutines()
					eng := NewEngine(threads)
					det := optsFor(Deterministic, threads, func(o *Options) { o.Engine = eng })
					non := optsFor(NonDeterministic, threads, func(o *Options) { o.Engine = eng })
					slots := make([]slot, epochSlots)
					runSlots(slots, non, nil) // the pool's workers now exist
					warm := settledGoroutines()

					var fired atomic.Bool
					boom := func(ctx *Ctx[slotJob], here bool) {
						if here && ctx.TID() == victim && fired.CompareAndSwap(false, true) {
							panic("operator bug")
						}
					}
					msg := panicText(func() {
						RunOn(eng, epochJobsFor(5), func(ctx *Ctx[slotJob], j slotJob) {
							// Hold every other worker in its first task until the
							// victim has failed, so the victim surely runs one.
							for ctx.TID() != victim && !fired.Load() {
								runtime.Gosched()
							}
							s := &slots[j.a]
							ctx.Acquire(&s.Lockable)
							boom(ctx, !inCommit)
							ctx.OnCommit(func(ctx *Ctx[slotJob]) {
								boom(ctx, inCommit)
								s.value++
							})
						}, non)
					})
					if msg != "operator bug" {
						t.Fatalf("panic reached the caller as %q", msg)
					}
					if n := runtime.NumGoroutine(); n != warm {
						t.Fatalf("%d goroutines after the failed run, %d before it", n, warm)
					}

					// A worker still waiting for the dead run's task would never
					// take the next run's start signal, and a worklist still
					// holding the dead run's tasks would never drain.
					next := make(chan [2]uint64, 1)
					go func() {
						fp, _ := runSlots(slots, det, nil)
						_, commits := runSlots(slots, non, nil)
						next <- [2]uint64{fp, commits}
					}()
					select {
					case got := <-next:
						if got[0] != want || got[1] != epochCommits {
							t.Fatalf("after the panic: det fingerprint %#x (fresh %#x), nondet %d commits (want %d)",
								got[0], want, got[1], epochCommits)
						}
					case <-time.After(10 * time.Second):
						t.Fatal("the engine's next runs did not finish in 10s")
					}
					eng.Close()
					deadline := time.Now().Add(5 * time.Second)
					for runtime.NumGoroutine() > before {
						if time.Now().After(deadline) {
							t.Fatalf("%d goroutines after Close, %d before the engine existed — a worker leaked",
								runtime.NumGoroutine(), before)
						}
						time.Sleep(time.Millisecond)
					}
				})
			}
		}
	}
}

// settledGoroutines returns the goroutine count once it has read the same
// value on five consecutive 1 ms polls (or after 5 s), so a baseline does
// not count a goroutine of an earlier subtest that is still exiting.
func settledGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(5 * time.Second); same < 5 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestBudgetsFailLoudlyBeforeAnyMark: a spent epoch clock and a generation
// too large for the id field each fail the run with a message naming the
// budget, before the operator runs and before any mark word is written,
// and the engine serves the next run.
func TestBudgetsFailLoudlyBeforeAnyMark(t *testing.T) {
	eng := NewEngine(4)
	defer eng.Close()
	slots := make([]slot, epochSlots)
	clean := func() {
		t.Helper()
		for i := range slots {
			if !untouched(&slots[i].Lockable) {
				t.Fatalf("slot %d was marked by a run that had to fail first", i)
			}
		}
	}

	for _, sched := range []Sched{Deterministic, NonDeterministic} {
		eng.clock = marks.ClockAfter(marks.MaxEpoch)
		msg := panicText(func() { runSlots(slots, optsFor(sched, 4, func(o *Options) { o.Engine = eng }), nil) })
		if !strings.Contains(msg, "epoch budget exhausted") {
			t.Fatalf("%v on a spent clock: panic %q", sched, msg)
		}
		clean()
	}

	// Near the limit: the rounds that still get an epoch run normally, the
	// first one that does not stops the run. (On slots of its own: words
	// written under this private clock are newer than anything the process
	// clock will hand out, which is why production has one clock only.)
	eng.clock = marks.ClockAfter(marks.MaxEpoch - 3)
	msg := panicText(func() {
		runSlots(make([]slot, epochSlots), optsFor(Deterministic, 4, func(o *Options) { o.Engine = eng }), nil)
	})
	if !strings.Contains(msg, "epoch budget exhausted") {
		t.Fatalf("run crossing the epoch limit: panic %q", msg)
	}

	eng.clock = &marks.Epochs
	calls := 0
	msg = panicText(func() {
		RunOn(eng, make([]int32, marks.MaxID+1), func(*Ctx[int32], int32) { calls++ },
			optsFor(Deterministic, 4))
	})
	if !strings.Contains(msg, "exceeds the 24-bit id field") || calls != 0 {
		t.Fatalf("over-budget generation: panic %q after %d operator calls", msg, calls)
	}

	want, _ := runSlots(make([]slot, epochSlots), optsFor(Deterministic, 4), nil)
	if got, _ := runSlots(slots, optsFor(Deterministic, 4, func(o *Options) { o.Engine = eng }), nil); got != want {
		t.Fatalf("engine after four failed runs: fingerprint %#x, fresh %#x", got, want)
	}
}
