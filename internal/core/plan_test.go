package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestPlanOf: the first PlanOf of every execution of a task's body returns
// a zero plan, a later call in the same body returns the same plan, and the
// task's commit handler — built once per loop — gets that plan back with
// what the body stored in it. A handler whose body built no plan gets a zero
// one, never the plan another task left in the slot. Tasks conflict on 16
// cells and the first n push a child each, so plans pass through inspect,
// continuation commits on rebound contexts, validate-mode re-execution,
// speculative retries and a later generation.
func TestPlanOf(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // four real workers
	const n = 600
	type plan struct {
		item  int
		token *int
		pad   [6]int
	}
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
				var dirtyBody, unstable, wrongCommit atomic.Int64

				commit := func(c *Ctx[int]) {
					it := c.Item()
					if p := PlanOf[plan](c); p.item != it+1 || p.token == nil || *p.token != it || p.pad[5] != it {
						wrongCommit.Add(1)
					}
					committed[it].Add(1)
					if it < n {
						c.Push(it + n)
					}
				}
				bare := func(c *Ctx[int]) {
					if *PlanOf[plan](c) != (plan{}) {
						wrongCommit.Add(1)
					}
					committed[c.Item()].Add(1)
				}
				ForEach(items, func(ctx *Ctx[int], i int) {
					ctx.Acquire(&cells[i%16].Lockable)
					ctx.Acquire(&cells[(i/16)%16].Lockable)
					if i%7 == 3 {
						ctx.OnCommit(bare)
						return
					}
					p := PlanOf[plan](ctx)
					if *p != (plan{}) {
						dirtyBody.Add(1)
					}
					tok := i
					p.item, p.token, p.pad[5] = i+1, &tok, i
					if PlanOf[plan](ctx) != p {
						unstable.Add(1)
					}
					ctx.OnCommit(commit)
				}, optsFor(Deterministic, threads, v.mod))

				if k := dirtyBody.Load(); k > 0 {
					t.Errorf("%d bodies got a plan that was not zero", k)
				}
				if k := unstable.Load(); k > 0 {
					t.Errorf("%d bodies got a different plan from a second PlanOf", k)
				}
				if k := wrongCommit.Load(); k > 0 {
					t.Errorf("%d handlers got a plan other than their own body's", k)
				}
				for it := range committed {
					want := int32(1)
					if it >= n && (it-n)%7 == 3 {
						want = 0 // its parent's bare handler pushed nothing
					}
					if got := committed[it].Load(); got != want {
						t.Fatalf("item %d committed %d times, want %d", it, got, want)
					}
				}
			})
		}
	}
}
