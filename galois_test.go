package galois_test

import (
	"fmt"
	"testing"

	"galois"
)

// counter is a shared abstract location.
type counter struct {
	galois.Lockable
	n int64
}

func TestPublicAPIRoundTrip(t *testing.T) {
	for _, sched := range []galois.Sched{galois.NonDeterministic, galois.Deterministic} {
		var c counter
		items := make([]int, 1000)
		st := galois.ForEach(items, func(ctx *galois.Ctx[int], _ int) {
			ctx.Acquire(&c.Lockable)
			ctx.OnCommit(func(*galois.Ctx[int]) { c.n++ })
		}, galois.WithSched(sched), galois.WithThreads(4))
		if c.n != 1000 {
			t.Fatalf("%v: n = %d", sched, c.n)
		}
		if st.Commits != 1000 {
			t.Fatalf("%v: commits = %d", sched, st.Commits)
		}
	}
}

func TestOptionPlumbing(t *testing.T) {
	var c counter
	tr := galois.NewTracer(2)
	sink := galois.NewTrace(2)
	met := galois.NewMetrics(2)
	st := galois.ForEach([]int{1, 2, 3}, func(ctx *galois.Ctx[int], _ int) {
		ctx.Acquire(&c.Lockable)
	},
		galois.WithSched(galois.Deterministic),
		galois.WithThreads(2),
		galois.WithoutContinuation(),
		galois.WithTrace(sink),
		galois.WithMetrics(met),
		galois.WithProfile(tr),
		galois.WithFIFO(),
	)
	if st.Commits != 3 {
		t.Fatalf("commits = %d", st.Commits)
	}
	if sink.Len() == 0 {
		t.Fatal("WithTrace buffered no events")
	}
	if len(sink.Rounds()) == 0 {
		t.Fatal("trace has no round events")
	}
	if met.Counter("run.commits").Value() != 3 {
		t.Fatalf("metrics run.commits = %d", met.Counter("run.commits").Value())
	}
	if tr.Len() == 0 {
		t.Fatal("WithProfile recorded no accesses")
	}
}

func TestTraceCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: 1-thread trace on a 2-thread run")
		}
	}()
	galois.ForEach([]int{1}, func(ctx *galois.Ctx[int], _ int) {},
		galois.WithThreads(2), galois.WithTrace(galois.NewTrace(1)))
}

func TestSchedulerStringNames(t *testing.T) {
	if galois.NonDeterministic.String() != "nondet" || galois.Deterministic.String() != "det" {
		t.Fatal("scheduler names changed")
	}
}

// ExampleForEach demonstrates the programming model: cautious tasks over
// shared accounts, with determinism as a runtime switch.
func ExampleForEach() {
	type account struct {
		galois.Lockable
		balance int
	}
	accounts := []*account{{balance: 10}, {balance: 10}, {balance: 10}}

	// Each task moves one unit from account i to account (i+1)%3;
	// tasks conflict pairwise on shared accounts.
	moves := []int{0, 1, 2, 0, 1, 2}
	galois.ForEach(moves, func(ctx *galois.Ctx[int], i int) {
		from := accounts[i]
		to := accounts[(i+1)%len(accounts)]
		ctx.Acquire(&from.Lockable)
		ctx.Acquire(&to.Lockable)
		ok := from.balance > 0
		ctx.OnCommit(func(*galois.Ctx[int]) {
			if ok {
				from.balance--
				to.balance++
			}
		})
	}, galois.WithSched(galois.Deterministic), galois.WithThreads(2))

	fmt.Println(accounts[0].balance + accounts[1].balance + accounts[2].balance)
	// Output: 30
}

// ExampleCtx_Push demonstrates dynamic task creation: committed tasks add
// new tasks to the pool, deterministically ordered under DIG scheduling.
func ExampleCtx_Push() {
	var c counter
	// Each task increments the counter and spawns one child until depth
	// is exhausted: 4 roots * 3 levels = 12 commits.
	type job struct{ depth int }
	roots := []job{{3}, {3}, {3}, {3}}
	galois.ForEach(roots, func(ctx *galois.Ctx[job], j job) {
		ctx.Acquire(&c.Lockable)
		ctx.OnCommit(func(cc *galois.Ctx[job]) {
			c.n++
			if j.depth > 1 {
				cc.Push(job{depth: j.depth - 1})
			}
		})
	}, galois.WithSched(galois.Deterministic))
	fmt.Println(c.n)
	// Output: 12
}

func TestWithPriorityOBIM(t *testing.T) {
	// SSSP-flavored workload: relax cells in priority order; correctness
	// must hold regardless, but the option must round-trip the priority
	// function and deliver every task.
	var c counter
	items := make([]int, 2000)
	for i := range items {
		items[i] = i
	}
	st := galois.ForEach(items, func(ctx *galois.Ctx[int], i int) {
		ctx.Acquire(&c.Lockable)
		ctx.OnCommit(func(*galois.Ctx[int]) { c.n++ })
	},
		galois.WithThreads(4),
		galois.WithPriority(func(i int) int { return i / 100 }, 32),
	)
	if st.Commits != 2000 || c.n != 2000 {
		t.Fatalf("commits=%d n=%d", st.Commits, c.n)
	}
}

func TestWithPriorityTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on priority type mismatch")
		}
	}()
	galois.ForEach([]int{1}, func(ctx *galois.Ctx[int], i int) {},
		galois.WithPriority(func(s string) int { return 0 }, 8))
}

func TestPriorityOrderGuidesExecution(t *testing.T) {
	// Single thread, no conflicts: commits should trend with priority
	// (bucket order), observable through a shared append log.
	var c counter
	var order []int
	items := []int{5, 3, 9, 1, 7, 0, 8, 2, 6, 4}
	galois.ForEach(items, func(ctx *galois.Ctx[int], i int) {
		ctx.Acquire(&c.Lockable)
		ctx.OnCommit(func(*galois.Ctx[int]) { order = append(order, i) })
	},
		galois.WithThreads(1),
		galois.WithPriority(func(i int) int { return i }, 16),
	)
	// With one thread and all items pushed before execution... they are
	// seeded round-robin before workers start, so single-thread pops see
	// full buckets: order must be nondecreasing.
	for k := 1; k < len(order); k++ {
		if order[k] < order[k-1] {
			t.Fatalf("priority inversion in %v", order)
		}
	}
}

func TestCtxIntrospection(t *testing.T) {
	var c counter
	sawTID := false
	galois.ForEach([]int{1, 2, 3}, func(ctx *galois.Ctx[int], i int) {
		if ctx.TID() < 0 || ctx.TID() >= ctx.Threads() {
			t.Errorf("TID %d out of range [0,%d)", ctx.TID(), ctx.Threads())
		}
		sawTID = true
		if ctx.Deterministic() {
			t.Error("nondet loop reported deterministic")
		}
		ctx.Acquire(&c.Lockable)
		ctx.CountAtomic(3)
	}, galois.WithThreads(1))
	if !sawTID {
		t.Fatal("body never ran")
	}
	galois.ForEach([]int{1}, func(ctx *galois.Ctx[int], i int) {
		if !ctx.Deterministic() {
			t.Error("det loop reported non-deterministic")
		}
	}, galois.WithSched(galois.Deterministic), galois.WithThreads(1))
}

func TestCountAtomicFlowsIntoStats(t *testing.T) {
	var c counter
	st := galois.ForEach([]int{1, 2}, func(ctx *galois.Ctx[int], i int) {
		ctx.Acquire(&c.Lockable)
		ctx.CountAtomic(100)
	}, galois.WithThreads(1))
	if st.AtomicOps < 200 {
		t.Fatalf("atomic ops %d < 200", st.AtomicOps)
	}
}

func TestEngineFacade(t *testing.T) {
	// NewEngine honors WithThreads; ForEachOn and WithEngine are two routes
	// to the same reused state, and both leave results identical to the
	// one-shot ForEach.
	eng := galois.NewEngine(galois.WithThreads(4))
	defer eng.Close()
	if eng.Threads() != 4 {
		t.Fatalf("engine threads = %d", eng.Threads())
	}
	items := make([]int, 500)
	body := func(ctx *galois.Ctx[int], _ int) {}
	for rep := 0; rep < 2; rep++ {
		st := galois.ForEachOn(eng, items, body, galois.WithSched(galois.Deterministic))
		if st.Commits != uint64(len(items)) {
			t.Fatalf("ForEachOn rep %d: commits = %d", rep, st.Commits)
		}
		st = galois.ForEach(items, body,
			galois.WithSched(galois.Deterministic), galois.WithEngine(eng))
		if st.Commits != uint64(len(items)) {
			t.Fatalf("WithEngine rep %d: commits = %d", rep, st.Commits)
		}
	}
}
