package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestCtxItem: Ctx.Item is the item of the task being executed, in its body
// and in its commit handler, so one handler built before the loop serves
// every task. Tasks conflict heavily on 16 cells (aborts, retries, many
// rounds) and the first n push a child each from the handler, so items
// reach the handler through every path: inspect, continuation commit,
// validate-mode re-execution, speculative retry and a later generation.
//
// Even items register the hoisted handler alone; every item must commit
// exactly once, which a handler that saw another task's item would break.
// Odd items wrap it in a per-task closure that also compares Item with the
// item the closure captured.
//
// Under continuation (g-d) a commit runs after its worker has inspected the
// rest of its range, on a context the worker's later inspections rebound to
// other tasks; the test asserts such commits happen and see their own item.
// (The round pipeline commits a task on the worker that inspected it; what
// moves between the inspection and the commit is the context, not the
// worker.) Under g-dnc and g-n the body runs right before its commit.
func TestCtxItem(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // four real workers
	const n = 600
	for _, v := range []struct {
		name string
		mod  func(*Options)
	}{
		{"g-n", func(o *Options) { o.Sched = NonDeterministic }},
		{"g-d", func(o *Options) { o.Sched = Deterministic }},
		{"g-dnc", func(o *Options) { o.Sched, o.Continuation = Deterministic, false }},
	} {
		for _, threads := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/t%d", v.name, threads), func(t *testing.T) {
				cells := make([]cell, 16)
				items := make([]int, n)
				for i := range items {
					items[i] = i
				}
				committed := make([]atomic.Int32, 2*n)
				lastBody := make([]int, threads) // per worker: the item its last body ran
				var wrongBody, wrongCommit, rebound atomic.Int64

				commit := func(c *Ctx[int]) {
					it := c.Item()
					committed[it].Add(1)
					if lastBody[c.TID()] != it {
						rebound.Add(1)
					}
					if it < n {
						c.Push(it + n)
					}
				}
				opt := optsFor(Deterministic, threads, v.mod)
				ForEach(items, func(ctx *Ctx[int], i int) {
					lastBody[ctx.TID()] = i
					if ctx.Item() != i {
						wrongBody.Add(1)
					}
					ctx.Acquire(&cells[i%16].Lockable)
					ctx.Acquire(&cells[(i/16)%16].Lockable)
					if i%2 == 0 {
						ctx.OnCommit(commit)
						return
					}
					ctx.OnCommit(func(c *Ctx[int]) {
						if c.Item() != i {
							wrongCommit.Add(1)
						}
						commit(c)
					})
				}, opt)

				if k := wrongBody.Load(); k > 0 {
					t.Errorf("%d bodies saw another task's Item", k)
				}
				if k := wrongCommit.Load(); k > 0 {
					t.Errorf("%d commits saw another task's Item", k)
				}
				for it := range committed {
					if got := committed[it].Load(); got != 1 {
						t.Fatalf("item %d committed %d times through Item, want 1", it, got)
					}
				}
				switch r := rebound.Load(); {
				case opt.Sched == Deterministic && opt.Continuation && r == 0:
					t.Error("no continuation commit ran on a context rebound since its inspection: the case the test exists for was not exercised")
				case !(opt.Sched == Deterministic && opt.Continuation) && r != 0:
					t.Errorf("%d commits ran after another body on their context, want none without continuation", r)
				}
			})
		}
	}
}
