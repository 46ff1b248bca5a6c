package core

import (
	"galois/internal/cachesim"
	"galois/internal/marks"
	"galois/internal/stats"
)

// mode is the execution mode of a task body. One body runs under up to
// three modes depending on the scheduler and optimizations, which is what
// makes determinism "on-demand": the program text never changes.
type mode int

const (
	// modeDirect: non-deterministic scheduler; Acquire locks eagerly and
	// aborts on conflict (Figure 1b).
	modeDirect mode = iota
	// modeInspect: DIG inspect phase; Acquire performs writeMarksMax and
	// never aborts (Figure 3), so every task contributes its id to the
	// max at every neighborhood location.
	modeInspect
	// modeValidate: DIG baseline commit phase; the body re-executes and
	// Acquire checks that every mark still holds the task's id
	// (Figure 3, selectAndExec line 11).
	modeValidate
)

// conflictSignal is the panic sentinel used to unwind a task on conflict.
// Cautious tasks perform no global writes before the failsafe point, so
// unwinding is all the rollback that is ever needed (§2.1).
type conflictSignal struct{}

// Ctx is the per-task execution context handed to task bodies. It carries
// the task's item and mark record, the deferred commit closure and any
// created children. A Ctx is owned by one worker goroutine at a time and
// must not escape the task body.
type Ctx[T any] struct {
	tid     int
	threads int
	det     bool
	mode    mode
	item    T
	rec     *marks.Rec
	own     marks.Rec // the worker's record under the speculative scheduler
	// tasks is the live generation's task array under the DIG scheduler:
	// the task a WriteMax displaced is tasks[id-1].
	tasks []detTask[T]
	// acquired lists the locations a speculative task holds, released when
	// it ends. The DIG scheduler never un-marks and keeps no list.
	acquired []*marks.Lockable
	depth    int // locations owned so far in inspect mode
	// failed is set in inspect mode when the task loses a location, at
	// failDepth; the body runs on so later locations still see its id.
	failed    bool
	failDepth int

	// commitFn is the failsafe continuation registered by OnCommit.
	commitFn func(*Ctx[T])
	// inCommit is true while commitFn runs; Acquire is then illegal.
	inCommit bool

	children []T
	// scratch is a ctx-owned children buffer for validate-mode
	// re-execution. After the inspect phase, children aliases the buffer
	// of the last task this worker inspected; validate-mode bodies must
	// append into a buffer no task owns, or two tasks executing
	// concurrently on different workers could write one backing array.
	scratch []T

	// plans are the worker's plan slots (PlanOf): one per position in the
	// worker's static share of a round, which its inspect and execute
	// phases walk alike; slot is the executing task's position.
	plans []planSlot
	slot  int

	// tally batches the worker's counts: flushed once per window range
	// (DIG) or when the worker leaves (speculative).
	tally stats.Tally
	col   *stats.Collector
	pro   *cachesim.Tracer // the one observer Acquire reports to; run-scoped
}

// prepare binds a retained context's per-run fields. Engines keep contexts
// alive across runs (their scratch capacity is part of the allocation-free
// steady state); prepare is called serially before the workers of a new run
// fork.
func (c *Ctx[T]) prepare(threads int, det bool, col *stats.Collector, opt Options) {
	c.threads = threads
	c.det = det
	c.col = col
	c.pro = opt.Profile
	c.tally = stats.Tally{} // a run that panicked may have left counts behind
}

// reset binds the context to one task: every path that runs a body or a
// commit handler calls it with that task's item, record and plan slot.
func (c *Ctx[T]) reset(tid int, m mode, rec *marks.Rec, item T, slot int) {
	c.tid = tid
	c.slot = slot
	c.mode = m
	c.item = item
	c.rec = rec
	c.acquired = c.acquired[:0]
	c.depth = 0
	c.commitFn = nil
	c.inCommit = false
	c.failed = false
	c.children = c.children[:0]
}

// forgetTask drops what the context still holds of the run — the last
// commit closure and item, every plan, any of which can pin operator state,
// and the tracer, which pins every location the run reached — once the run
// is over.
func (c *Ctx[T]) forgetTask() {
	var zero T
	c.commitFn = nil
	c.item = zero
	clear(c.plans)
	c.pro = nil
}

// Item returns the item of the task being executed, in its body and in its
// commit handler alike. A handler that needs nothing but the item and the
// state the task acquired can therefore be built once per loop, outside the
// body, and read the item here: no closure per task.
func (c *Ctx[T]) Item() T { return c.item }

// planSlot holds one task's plan. live is set by the first PlanOf of the
// task's body and cleared when a body starts in the slot: a handler whose
// body built no plan finds live unset and gets a zero plan, never another
// task's.
type planSlot struct {
	plan any
	live bool
}

// PlanOf returns the executing task's plan: a *P that the first call in each
// execution of the task's body zeroes, and that the task's commit handler
// gets again, whichever worker context it runs on. A body builds what its
// commit needs into the plan (a mesh cavity, say) instead of allocating it,
// and a handler built once per loop reads it back with Item, so a task
// allocates neither. The plan is engine storage, private to the task: the
// next task in its slot zeroes it, and the run's end drops it, so a plan
// outlives neither. A loop uses one plan type; a call with another type
// gets a fresh zero plan.
func PlanOf[P, T any](c *Ctx[T]) *P {
	for len(c.plans) <= c.slot {
		c.plans = append(c.plans, planSlot{})
	}
	s := &c.plans[c.slot]
	p, ok := s.plan.(*P)
	if !ok {
		p = new(P)
		s.plan = p
	} else if !s.live {
		var zero P
		*p = zero
	}
	s.live = true
	return p
}

// TID returns the executing worker's id in [0, Threads()). It is stable for
// the duration of one body or commit-closure execution only.
func (c *Ctx[T]) TID() int { return c.tid }

// Threads returns the number of workers executing the loop.
func (c *Ctx[T]) Threads() int { return c.threads }

// Deterministic reports whether the loop runs under the DIG scheduler.
// Programs should not branch on this to change their output — doing so
// forfeits the on-demand property — but it is useful for diagnostics.
func (c *Ctx[T]) Deterministic() bool { return c.det }

// Acquire adds the abstract location l to the task's neighborhood. Every
// read of shared state must be preceded by acquiring the location that
// guards it; this is what makes tasks cautious by construction.
//
// Under the non-deterministic scheduler a conflict aborts and retries the
// task. Under the DIG scheduler, inspect-phase acquisition performs
// writeMarksMax and execute-phase acquisition validates ownership.
func (c *Ctx[T]) Acquire(l *marks.Lockable) {
	if c.inCommit || c.commitFn != nil {
		panic("galois: Acquire after OnCommit — task is not cautious")
	}
	if c.pro != nil {
		c.pro.Touch(c.tid, l)
	}
	switch c.mode {
	case modeDirect:
		ok, ops := l.TryAcquire(c.rec)
		c.tally.AtomicOps += uint64(ops)
		if !ok {
			panic(conflictSignal{})
		}
		if len(c.acquired) == 0 || c.acquired[len(c.acquired)-1] != l {
			c.acquired = append(c.acquired, l)
		}
	case modeInspect:
		owned, stole, ops := l.WriteMax(c.rec)
		c.tally.AtomicOps += uint64(ops)
		if owned {
			if stole != 0 {
				// The displaced lower-id task can no longer
				// own all of its neighborhood (§3.3).
				c.tasks[stole-1].rec.Prevent()
				c.tally.AtomicOps++
			}
			c.depth++
		} else if !c.failed {
			// A higher-id task holds the mark; this task cannot
			// commit this round, but inspection continues so the
			// remaining locations still observe its id.
			c.failed = true
			c.failDepth = c.depth
			c.rec.Prevent()
			c.tally.AtomicOps++
		}
	case modeValidate:
		c.tally.AtomicOps++
		if !l.OwnedBy(c.rec) {
			panic(conflictSignal{})
		}
	}
}

// OnCommit registers the task's write phase. The call marks the failsafe
// point of §2.1: everything before it must be read-only with respect to
// shared state; all shared writes go inside fn. fn runs exactly once if and
// when the task commits, and never runs for aborted or failed attempts.
//
// Under the continuation optimization (§3.3) fn may run on a different
// worker, long after the task body returned; it therefore receives the
// executing context as its argument and MUST NOT capture the context that
// was passed to the task body. That argument's Item is the committing
// task's item, so one fn may serve every task of the loop.
//
// A task without shared writes may omit OnCommit entirely.
func (c *Ctx[T]) OnCommit(fn func(*Ctx[T])) {
	if c.inCommit {
		panic("galois: OnCommit inside OnCommit")
	}
	if c.commitFn != nil {
		panic("galois: OnCommit called twice in one task")
	}
	if fn == nil {
		panic("galois: OnCommit with nil function")
	}
	c.commitFn = fn
}

// Push creates a new task (an element of S(t), §2). The task enters the
// pool only if the creating task commits. Under the DIG scheduler the new
// task's place in the next generation is (id(parent), creation index):
// the committed tasks' children are concatenated in parent id order, each
// parent's in push order.
func (c *Ctx[T]) Push(item T) {
	c.children = append(c.children, item)
}

// CountAtomic adds n application-level atomic updates to the run's
// statistics (the Figure 5 communication proxy) without performing any
// synchronization itself.
func (c *Ctx[T]) CountAtomic(n int) { c.tally.AtomicOps += uint64(n) }

// runBody executes body under the current mode, translating conflict
// panics into the returned flag. Any other panic propagates to the caller.
func (c *Ctx[T]) runBody(body func(*Ctx[T], T), item T) (conflicted bool) {
	if c.slot < len(c.plans) {
		c.plans[c.slot].live = false // this body's first PlanOf zeroes the plan
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(conflictSignal); ok {
				conflicted = true
				return
			}
			panic(r)
		}
	}()
	body(c, item)
	return false
}

// flush transfers the batched counts to worker tid's collector slot.
func (c *Ctx[T]) flush(tid int) {
	c.col.Add(tid, c.tally)
	c.tally = stats.Tally{}
}
