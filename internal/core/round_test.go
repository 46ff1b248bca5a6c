package core

import (
	"fmt"
	"testing"

	"galois/internal/obs"
	"galois/internal/rng"
)

// tracedOrderSensitive runs an order-sensitive conflict workload (with
// dynamically created children) under the given options with a trace
// attached, returning the cell fingerprint and the canonical event lines.
// The workload covers both round pipelines when driven with a large
// initial window: early rounds exceed serialSpan×nthreads (parallel
// static-range phases with fused gather), and conflict-driven shrinking
// plus generation tails drop rounds into the batched serial path.
func tracedOrderSensitive(t *testing.T, ntasks int, opt Options) (uint64, []string) {
	t.Helper()
	const ncells = 48
	cells := make([]*cell, ncells)
	for i := range cells {
		cells[i] = &cell{}
	}
	r := rng.New(42)
	type task struct {
		id    uint64
		a, b  int
		depth int
	}
	items := make([]task, ntasks)
	for i := range items {
		items[i] = task{id: uint64(i + 1), a: r.Intn(ncells), b: r.Intn(ncells)}
	}
	tr := obs.NewTrace(opt.Threads)
	opt.Sink = tr
	st := ForEach(items, func(ctx *Ctx[task], tk task) {
		ca, cb := cells[tk.a], cells[tk.b]
		ctx.Acquire(&ca.Lockable)
		ctx.Acquire(&cb.Lockable)
		if tk.depth < 1 && tk.id%5 == 0 {
			ctx.Push(task{id: tk.id * 31, a: tk.b, b: tk.a, depth: tk.depth + 1})
		}
		ctx.OnCommit(func(*Ctx[task]) {
			ca.value = ca.value*31 + tk.id
			cb.value = cb.value*37 + tk.id
		})
	}, opt)
	want := uint64(ntasks + ntasks/5)
	if st.Commits != want {
		t.Fatalf("commits = %d, want %d", st.Commits, want)
	}
	return fingerprintCells(cells), tr.CanonicalLines()
}

// sameRun fails the test unless a run's fingerprint and canonical event
// sequence equal the reference's (the one-thread run, or a pinned list).
func sameRun(t *testing.T, fp uint64, events []string, refFP uint64, refEvents []string) {
	t.Helper()
	if fp != refFP {
		t.Fatalf("fingerprint %#x, reference %#x", fp, refFP)
	}
	if len(events) != len(refEvents) {
		t.Fatalf("%d events %q, reference %d %q", len(events), events, len(refEvents), refEvents)
	}
	for i := range events {
		if events[i] != refEvents[i] {
			t.Fatalf("event %d = %q, reference %q", i, events[i], refEvents[i])
		}
	}
}

// TestParallelCoordinatorMatchesSerialOracle is the differential claim of
// the fused round pipeline: for every pipeline mix — parallel rounds on
// static owner-computes ranges with gather fused into execute, and batched
// serial rounds drained inside one barrier callback — the run commits a
// byte-identical fingerprint AND an identical canonical event sequence to
// the one-thread run, across thread counts and with and without the
// continuation optimization. At one thread every round is a serialRound
// (setupRound): serial formation, serial inspect and execute, the gather
// walk — no lane, no merge, no second worker — so that run is the serial
// pipeline, and spec_test.go checks it against Figure 2 written down
// independently of the engine.
func TestParallelCoordinatorMatchesSerialOracle(t *testing.T) {
	const ntasks = 3000
	for _, winInit := range []int{0, 4096} {
		for _, cont := range []bool{true, false} {
			optFor := func(threads int) Options {
				return optsFor(Deterministic, threads, func(o *Options) {
					o.Continuation = cont
					o.WindowInit = winInit
				})
			}
			refFP, refEvents := tracedOrderSensitive(t, ntasks, optFor(1))
			for _, threads := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("win=%d/cont=%v/t%d", winInit, cont, threads), func(t *testing.T) {
					fp, events := tracedOrderSensitive(t, ntasks, optFor(threads))
					sameRun(t, fp, events, refFP, refEvents)
				})
			}
		}
	}
}

// TestSerialFastPathPinnedEvents pins the exact canonical event sequence of
// a run whose only round is sub-parallel (w <= nthreads, the serial fast
// path), and checks the sequence is identical across thread counts — the
// fast path may skip the lanes and the merge, but not a single structural
// event.
func TestSerialFastPathPinnedEvents(t *testing.T) {
	want := []string{
		"run-start sched=1 items=2",
		"gen-start gen=0 round=0 args=2,0,0,0",
		"round-start gen=0 round=0 args=2,0,0,0",
		"phases gen=0 round=0",
		"round-end gen=0 round=0 args=2,2,0,0",
		"suspend gen=0 round=0 args=2,0,0,0",
		"resume gen=0 round=0 args=2,0,0,0",
		"window gen=0 round=0 args=16,32,1000,1",
		"gen-end gen=0 round=0 args=0,0,0,0",
		"run-end gen=0 round=0 args=2,0,1,0",
	}
	var c1, c2 cell
	for _, threads := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("t%d", threads), func(t *testing.T) {
			tr := obs.NewTrace(threads)
			ForEach([]int{0, 1}, func(ctx *Ctx[int], i int) {
				c := &c1
				if i == 1 {
					c = &c2
				}
				ctx.Acquire(&c.Lockable)
				ctx.OnCommit(func(*Ctx[int]) { c.value++ })
			}, optsFor(Deterministic, threads, func(o *Options) { o.Sink = tr }))
			sameRun(t, 0, tr.CanonicalLines(), 0, want)
		})
	}
}

// TestForcedConflictSerialFallback drives the scheduler's degenerate case:
// every task acquires one shared cell, so each round commits exactly one
// task and the window policy shrinks to its floor. Those tiny rounds all
// fall below serialSpan×nthreads, forcing the batched serial path to carry
// essentially the whole run at every thread count — the deterministic
// fallback when contention defeats parallelism. The run must commit the
// same fingerprint and canonical event sequence as the one-thread run; the
// cell value is order-sensitive, so it pins the order of the one-commit
// rounds.
func TestForcedConflictSerialFallback(t *testing.T) {
	const ntasks = 60
	items := make([]int, ntasks)
	for i := range items {
		items[i] = i
	}
	run := func(threads int, cont bool) (uint64, []string) {
		var c cell
		tr := obs.NewTrace(threads)
		st := ForEach(items, func(ctx *Ctx[int], i int) {
			ctx.Acquire(&c.Lockable)
			ctx.OnCommit(func(*Ctx[int]) { c.value = c.value*31 + uint64(i+1) })
		}, optsFor(Deterministic, threads, func(o *Options) {
			o.Continuation = cont
			o.Sink = tr
		}))
		if st.Commits != ntasks {
			t.Fatalf("commits = %d, want %d", st.Commits, ntasks)
		}
		if st.Aborts == 0 {
			t.Fatal("forced-conflict workload aborted nothing")
		}
		return c.value, tr.CanonicalLines()
	}
	for _, cont := range []bool{true, false} {
		refFP, refEvents := run(1, cont)
		for _, threads := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("cont=%v/t%d", cont, threads), func(t *testing.T) {
				fp, events := run(threads, cont)
				sameRun(t, fp, events, refFP, refEvents)
			})
		}
	}
}
