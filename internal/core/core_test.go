package core

import (
	"fmt"
	"hash/fnv"
	"runtime"

	"galois/internal/cachesim"
	"sync/atomic"
	"testing"

	"galois/internal/marks"
	"galois/internal/obs"
	"galois/internal/rng"
)

// cell is a shared abstract location with a value.
type cell struct {
	marks.Lockable
	value uint64
	hits  uint64
}

func optsFor(s Sched, threads int, more ...func(*Options)) Options {
	o := Defaults()
	o.Sched = s
	o.Threads = threads
	for _, f := range more {
		f(&o)
	}
	return o
}

// fingerprintCells hashes cell values in index order, capturing both the
// final values and (through non-commutative updates) the commit order.
func fingerprintCells(cells []*cell) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, c := range cells {
		v := c.value
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

func TestDisjointTasksBothSchedulers(t *testing.T) {
	for _, sched := range []Sched{NonDeterministic, Deterministic} {
		t.Run(sched.String(), func(t *testing.T) {
			cells := make([]*cell, 1000)
			items := make([]int, len(cells))
			for i := range cells {
				cells[i] = &cell{}
				items[i] = i
			}
			st := ForEach(items, func(ctx *Ctx[int], i int) {
				c := cells[i]
				ctx.Acquire(&c.Lockable)
				ctx.OnCommit(func(*Ctx[int]) { c.value++ })
			}, optsFor(sched, 4))
			for i, c := range cells {
				if c.value != 1 {
					t.Fatalf("cell %d = %d, want 1", i, c.value)
				}
			}
			if st.Commits != uint64(len(cells)) {
				t.Fatalf("commits = %d, want %d", st.Commits, len(cells))
			}
		})
	}
}

func TestConflictingTasksBothSchedulers(t *testing.T) {
	// Each task increments two cells from a small pool; heavy conflicts.
	// Every increment must happen exactly once under both schedulers.
	const ntasks = 2000
	const ncells = 16
	for _, sched := range []Sched{NonDeterministic, Deterministic} {
		for _, threads := range []int{1, 4, 8} {
			name := fmt.Sprintf("%v/t%d", sched, threads)
			t.Run(name, func(t *testing.T) {
				cells := make([]*cell, ncells)
				for i := range cells {
					cells[i] = &cell{}
				}
				r := rng.New(7)
				type task struct{ a, b int }
				items := make([]task, ntasks)
				for i := range items {
					items[i] = task{a: r.Intn(ncells), b: r.Intn(ncells)}
				}
				st := ForEach(items, func(ctx *Ctx[task], tk task) {
					ca, cb := cells[tk.a], cells[tk.b]
					ctx.Acquire(&ca.Lockable)
					ctx.Acquire(&cb.Lockable)
					ctx.OnCommit(func(*Ctx[task]) {
						ca.value++
						cb.value++
					})
				}, optsFor(sched, threads))
				var total uint64
				for _, c := range cells {
					total += c.value
				}
				if total != 2*ntasks {
					t.Fatalf("total increments = %d, want %d", total, 2*ntasks)
				}
				if st.Commits != ntasks {
					t.Fatalf("commits = %d, want %d", st.Commits, ntasks)
				}
			})
		}
	}
}

// runOrderSensitive runs a workload whose final state encodes the per-cell
// commit order (non-commutative update), returning the fingerprint.
func runOrderSensitive(t *testing.T, opt Options) uint64 {
	t.Helper()
	const ntasks = 3000
	const ncells = 64
	cells := make([]*cell, ncells)
	for i := range cells {
		cells[i] = &cell{}
	}
	r := rng.New(99)
	type task struct {
		id   uint64
		a, b int
	}
	items := make([]task, ntasks)
	for i := range items {
		items[i] = task{id: uint64(i + 1), a: r.Intn(ncells), b: r.Intn(ncells)}
	}
	st := ForEach(items, func(ctx *Ctx[task], tk task) {
		ca, cb := cells[tk.a], cells[tk.b]
		ctx.Acquire(&ca.Lockable)
		ctx.Acquire(&cb.Lockable)
		ctx.OnCommit(func(*Ctx[task]) {
			ca.value = ca.value*31 + tk.id
			cb.value = cb.value*37 + tk.id
		})
	}, opt)
	if st.Commits != ntasks {
		t.Fatalf("commits = %d, want %d", st.Commits, ntasks)
	}
	return fingerprintCells(cells)
}

// TestDeterministicPortability is the paper's central claim: under DIG
// scheduling the output is identical across thread counts and runs.
func TestDeterministicPortability(t *testing.T) {
	ref := runOrderSensitive(t, optsFor(Deterministic, 1))
	for _, threads := range []int{1, 2, 3, 4, 7, 8} {
		for rep := 0; rep < 2; rep++ {
			got := runOrderSensitive(t, optsFor(Deterministic, threads))
			if got != ref {
				t.Fatalf("threads=%d rep=%d: fingerprint %x != ref %x", threads, rep, got, ref)
			}
		}
	}
}

// TestContinuationTransparency: the §3.3 continuation optimization must not
// change the schedule, only its cost.
func TestContinuationTransparency(t *testing.T) {
	with := runOrderSensitive(t, optsFor(Deterministic, 4))
	without := runOrderSensitive(t, optsFor(Deterministic, 4, func(o *Options) { o.Continuation = false }))
	if with != without {
		t.Fatalf("continuation optimization changed the output: %x vs %x", with, without)
	}
}

// TestWindowPolicyTransparency: window constants change performance, and in
// general may change which serialization is chosen — but for a fixed policy
// the result must be thread-independent. Here we additionally check that the
// baseline scheduler agrees with itself under different windows only in
// commit COUNTS (all tasks commit), not fingerprints.
func TestWindowPolicyThreadIndependence(t *testing.T) {
	for _, winInit := range []int{8, 128, 4096} {
		ref := runOrderSensitive(t, optsFor(Deterministic, 1, func(o *Options) { o.WindowInit = winInit }))
		for _, threads := range []int{2, 8} {
			got := runOrderSensitive(t, optsFor(Deterministic, threads, func(o *Options) { o.WindowInit = winInit }))
			if got != ref {
				t.Fatalf("winInit=%d threads=%d: fingerprint differs", winInit, threads)
			}
		}
	}
}

func TestNonDeterministicCompletes(t *testing.T) {
	// The non-deterministic scheduler gives no output guarantee, but all
	// tasks must commit exactly once even under heavy conflicts.
	for _, threads := range []int{1, 4, 8} {
		_ = runOrderSensitive(t, optsFor(NonDeterministic, threads))
	}
}

func TestDynamicTaskCreation(t *testing.T) {
	// Each initial task spawns a chain of children; total commits must be
	// initial * depth, under both schedulers and with/without continuation.
	const initial = 200
	const depth = 5
	type task struct {
		cell  int
		depth int
	}
	for _, sched := range []Sched{NonDeterministic, Deterministic} {
		for _, cont := range []bool{true, false} {
			name := fmt.Sprintf("%v/cont=%v", sched, cont)
			t.Run(name, func(t *testing.T) {
				cells := make([]*cell, initial)
				items := make([]task, initial)
				for i := range cells {
					cells[i] = &cell{}
					items[i] = task{cell: i, depth: depth}
				}
				st := ForEach(items, func(ctx *Ctx[task], tk task) {
					c := cells[tk.cell]
					ctx.Acquire(&c.Lockable)
					ctx.OnCommit(func(cc *Ctx[task]) {
						c.value++
						if tk.depth > 1 {
							cc.Push(task{cell: tk.cell, depth: tk.depth - 1})
						}
					})
				}, optsFor(sched, 4, func(o *Options) { o.Continuation = cont }))
				want := uint64(initial * depth)
				if st.Commits != want {
					t.Fatalf("commits = %d, want %d", st.Commits, want)
				}
				for i, c := range cells {
					if c.value != depth {
						t.Fatalf("cell %d = %d, want %d", i, c.value, depth)
					}
				}
			})
		}
	}
}

// TestChildOrderDeterminism: children are scheduled in (parent id, k) order,
// so a non-commutative fold over child commits must be reproducible.
func TestChildOrderDeterminism(t *testing.T) {
	run := func(threads int) uint64 {
		var acc cell
		type task struct {
			id    uint64
			depth int
		}
		items := make([]task, 50)
		for i := range items {
			items[i] = task{id: uint64(i + 1), depth: 3}
		}
		ForEach(items, func(ctx *Ctx[task], tk task) {
			ctx.Acquire(&acc.Lockable)
			ctx.OnCommit(func(cc *Ctx[task]) {
				acc.value = acc.value*1099511628211 + tk.id
				if tk.depth > 1 {
					cc.Push(task{id: tk.id*2 + 1, depth: tk.depth - 1})
					cc.Push(task{id: tk.id*2 + 2, depth: tk.depth - 1})
				}
			})
		}, optsFor(Deterministic, threads))
		return acc.value
	}
	ref := run(1)
	for _, threads := range []int{2, 4, 8} {
		if got := run(threads); got != ref {
			t.Fatalf("threads=%d: child order fingerprint %x != %x", threads, got, ref)
		}
	}
}

// TestFullySerializedProgress: all tasks share one location; the DIG
// scheduler must still make progress (at least one commit per round) and
// terminate; the non-deterministic scheduler must not livelock.
func TestFullySerializedProgress(t *testing.T) {
	const ntasks = 300
	for _, sched := range []Sched{NonDeterministic, Deterministic} {
		t.Run(sched.String(), func(t *testing.T) {
			var c cell
			items := make([]int, ntasks)
			for i := range items {
				items[i] = i + 1
			}
			tr := obs.NewTrace(8)
			st := ForEach(items, func(ctx *Ctx[int], i int) {
				ctx.Acquire(&c.Lockable)
				ctx.OnCommit(func(*Ctx[int]) { c.value += uint64(i) })
			}, optsFor(sched, 8, func(o *Options) { o.Sink = tr }))
			if st.Commits != ntasks {
				t.Fatalf("commits = %d, want %d", st.Commits, ntasks)
			}
			want := uint64(ntasks * (ntasks + 1) / 2)
			if c.value != want {
				t.Fatalf("sum = %d, want %d", c.value, want)
			}
			if sched == Deterministic {
				for i, s := range tr.Rounds() {
					if s.Committed < 1 {
						t.Fatalf("round %d committed %d tasks", i, s.Committed)
					}
				}
			}
		})
	}
}

// TestDeterministicAbortsAtOneThread reproduces the paper's observation
// (§5.1) that deterministic variants abort even at one thread, because
// conflicting tasks can be inspected in the same round.
func TestDeterministicAbortsAtOneThread(t *testing.T) {
	var c cell
	items := make([]int, 500)
	for i := range items {
		items[i] = i
	}
	st := ForEach(items, func(ctx *Ctx[int], i int) {
		ctx.Acquire(&c.Lockable)
		ctx.OnCommit(func(*Ctx[int]) { c.value++ })
	}, optsFor(Deterministic, 1))
	if st.Aborts == 0 {
		t.Fatal("expected aborts under single-threaded DIG scheduling of conflicting tasks")
	}
	if st.Commits != 500 {
		t.Fatalf("commits = %d, want 500", st.Commits)
	}
}

func TestUserPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("user panic did not propagate")
		}
	}()
	ForEach([]int{1}, func(ctx *Ctx[int], i int) {
		panic("user bug")
	}, optsFor(NonDeterministic, 1))
}

func TestAcquireAfterOnCommitPanics(t *testing.T) {
	var c cell
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic for non-cautious task")
		}
	}()
	ForEach([]int{1}, func(ctx *Ctx[int], i int) {
		ctx.OnCommit(func(*Ctx[int]) {})
		ctx.Acquire(&c.Lockable)
	}, optsFor(NonDeterministic, 1))
}

func TestOnCommitTwicePanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic for double OnCommit")
		}
	}()
	ForEach([]int{1}, func(ctx *Ctx[int], i int) {
		ctx.OnCommit(func(*Ctx[int]) {})
		ctx.OnCommit(func(*Ctx[int]) {})
	}, optsFor(NonDeterministic, 1))
}

func TestEmptyInput(t *testing.T) {
	for _, sched := range []Sched{NonDeterministic, Deterministic} {
		st := ForEach(nil, func(ctx *Ctx[int], i int) {}, optsFor(sched, 4))
		if st.Commits != 0 {
			t.Fatalf("commits = %d for empty input", st.Commits)
		}
	}
}

func TestReadOnlyTasks(t *testing.T) {
	// Tasks that never call OnCommit (pure reads) must commit normally.
	var c cell
	var reads atomic.Uint64
	for _, sched := range []Sched{NonDeterministic, Deterministic} {
		reads.Store(0)
		items := make([]int, 100)
		st := ForEach(items, func(ctx *Ctx[int], i int) {
			ctx.Acquire(&c.Lockable)
			reads.Add(1) // test-side effect, not shared program state
		}, optsFor(sched, 4))
		if st.Commits != 100 {
			t.Fatalf("%v: commits = %d, want 100", sched, st.Commits)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	cells := make([]*cell, 100)
	items := make([]int, 100)
	for i := range cells {
		cells[i] = &cell{}
		items[i] = i
	}
	tr := obs.NewTrace(2)
	st := ForEach(items, func(ctx *Ctx[int], i int) {
		ctx.Acquire(&cells[i].Lockable)
		ctx.OnCommit(func(*Ctx[int]) { cells[i].value++ })
	}, optsFor(Deterministic, 2, func(o *Options) { o.Sink = tr }))
	if st.Inspects < st.Commits {
		t.Fatalf("inspects (%d) < commits (%d)", st.Inspects, st.Commits)
	}
	if st.AtomicOps == 0 {
		t.Fatal("atomic ops not counted")
	}
	if st.Rounds == 0 {
		t.Fatal("rounds not counted")
	}
	var committed int
	for _, s := range tr.Rounds() {
		committed += s.Committed
	}
	if committed != 100 {
		t.Fatalf("trace commits = %d, want 100", committed)
	}
}

func TestDuplicateAcquireIsIdempotent(t *testing.T) {
	// A task may acquire the same location repeatedly (e.g. a cavity
	// walk revisiting an element); both schedulers must treat that as a
	// single neighborhood membership.
	for _, sched := range []Sched{NonDeterministic, Deterministic} {
		var c cell
		items := make([]int, 200)
		st := ForEach(items, func(ctx *Ctx[int], i int) {
			for k := 0; k < 3; k++ {
				ctx.Acquire(&c.Lockable)
			}
			ctx.OnCommit(func(*Ctx[int]) { c.value++ })
		}, optsFor(sched, 4))
		if st.Commits != 200 || c.value != 200 {
			t.Fatalf("%v: commits=%d value=%d", sched, st.Commits, c.value)
		}
	}
}

func TestPushFromInspectPhase(t *testing.T) {
	// Pushes before OnCommit (phase 1) are legal and must only take
	// effect if the task commits; totals must match across schedulers.
	for _, sched := range []Sched{NonDeterministic, Deterministic} {
		for _, cont := range []bool{true, false} {
			var c cell
			type job struct{ depth int }
			items := []job{{2}, {2}, {2}}
			st := ForEach(items, func(ctx *Ctx[job], j job) {
				ctx.Acquire(&c.Lockable)
				if j.depth > 1 {
					ctx.Push(job{depth: j.depth - 1}) // phase-1 push
				}
				ctx.OnCommit(func(*Ctx[job]) { c.value++ })
			}, optsFor(sched, 4, func(o *Options) { o.Continuation = cont }))
			if st.Commits != 6 || c.value != 6 {
				t.Fatalf("%v/cont=%v: commits=%d value=%d", sched, cont, st.Commits, c.value)
			}
		}
	}
}

func TestMixedPhasePushOrdering(t *testing.T) {
	// Pushes from phase 1 and from the commit closure share the parent's
	// (id, k) sequence; the combined child order must be deterministic.
	run := func(threads int) uint64 {
		var acc cell
		type job struct {
			id    uint64
			depth int
		}
		items := []job{{id: 1, depth: 2}, {id: 2, depth: 2}}
		ForEach(items, func(ctx *Ctx[job], j job) {
			ctx.Acquire(&acc.Lockable)
			if j.depth > 1 {
				ctx.Push(job{id: j.id * 10, depth: 1}) // k=1 (phase 1)
			}
			ctx.OnCommit(func(c *Ctx[job]) {
				acc.value = acc.value*31 + j.id
				if j.depth > 1 {
					c.Push(job{id: j.id*10 + 1, depth: 1}) // k=2 (commit)
				}
			})
		}, optsFor(Deterministic, threads))
		return acc.value
	}
	ref := run(1)
	for _, th := range []int{2, 8} {
		if got := run(th); got != ref {
			t.Fatalf("threads=%d: %x != %x", th, got, ref)
		}
	}
}

func TestDeterministicLocalityTrace(t *testing.T) {
	// The profiled access multiset — and therefore the modeled memory
	// report — must be identical across runs and thread counts under DIG.
	run := func(threads int) (uint64, uint64) {
		cells := make([]*cell, 64)
		for i := range cells {
			cells[i] = &cell{}
		}
		items := make([]int, 800)
		r := rng.New(13)
		for i := range items {
			items[i] = r.Intn(64)
		}
		tr := cachesim.NewTracer(threads)
		o := optsFor(Deterministic, threads)
		o.Profile = tr
		ForEach(items, func(ctx *Ctx[int], i int) {
			ctx.Acquire(&cells[i].Lockable)
			ctx.Acquire(&cells[(i+7)%64].Lockable)
			ctx.OnCommit(func(*Ctx[int]) { cells[i].value++ })
		}, o)
		rep := tr.Analyze(16)
		return rep.Accesses, rep.DRAMRequests()
	}
	accA, dramA := run(1)
	for _, threads := range []int{2, 8} {
		acc, dram := run(threads)
		if acc != accA || dram != dramA {
			t.Fatalf("threads=%d: locality trace differs (%d/%d vs %d/%d)",
				threads, acc, dram, accA, dramA)
		}
	}
}

// TestFailDepthRecorded: a task that loses a location after owning two
// others is recorded once in acquire.fail_depth, at depth two, under both
// schedulers. A one-worker run never loses a location (DIG inspects in id
// order, and the speculative scheduler has no rival), so the loss is staged
// across two workers: the loser waits until its rival holds the shared
// location, and the rival cannot finish first.
func TestFailDepthRecorded(t *testing.T) {
	want := fmt.Sprint([]uint64{0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	spin := func(cond func() bool) {
		for !cond() {
			runtime.Gosched()
		}
	}
	t.Run("det", func(t *testing.T) {
		// 16 tasks, the window floor: one parallel round, positions 0-7 on
		// worker 0 and 8-15 on worker 1. Task 15 marks the shared cell;
		// task 0, waiting for that, owns two cells and then loses the
		// shared one to the higher id.
		cells := make([]cell, 18)
		var marked atomic.Bool
		items := make([]int, 16)
		for i := range items {
			items[i] = i
		}
		o := optsFor(Deterministic, 2, func(o *Options) { o.LocalityInterleave = false })
		o.Metrics = obs.NewRegistry(2)
		ForEach(items, func(ctx *Ctx[int], i int) {
			switch i {
			case 0:
				ctx.Acquire(&cells[0].Lockable)
				ctx.Acquire(&cells[16].Lockable)
				spin(marked.Load)
				ctx.Acquire(&cells[17].Lockable)
			case 15:
				ctx.Acquire(&cells[17].Lockable)
				marked.Store(true)
			default:
				ctx.Acquire(&cells[i].Lockable)
			}
		}, o)
		if got := fmt.Sprint(o.Metrics.Histogram("acquire.fail_depth", nil).Counts()); got != want {
			t.Errorf("acquire.fail_depth buckets %s, want %s", got, want)
		}
	})
	t.Run("nondet", func(t *testing.T) {
		// Item 0 seeds worker 0 and item 1 worker 1. Item 0 holds the
		// shared cell until item 1's first attempt has owned two cells
		// and lost it; later attempts of item 1 take one cell and commit.
		cells := make([]cell, 3)
		var held atomic.Bool
		var attempts atomic.Int32
		o := optsFor(NonDeterministic, 2)
		o.Metrics = obs.NewRegistry(2)
		ForEach([]int{0, 1}, func(ctx *Ctx[int], i int) {
			if i == 0 {
				ctx.Acquire(&cells[2].Lockable)
				held.Store(true)
				spin(func() bool { return attempts.Load() >= 2 })
				return
			}
			if attempts.Add(1) > 1 {
				ctx.Acquire(&cells[1].Lockable)
				return
			}
			spin(held.Load)
			ctx.Acquire(&cells[0].Lockable)
			ctx.Acquire(&cells[1].Lockable)
			ctx.Acquire(&cells[2].Lockable)
		}, o)
		if got := fmt.Sprint(o.Metrics.Histogram("acquire.fail_depth", nil).Counts()); got != want {
			t.Errorf("acquire.fail_depth buckets %s, want %s", got, want)
		}
	})
}
