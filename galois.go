// Package galois is a Go implementation of the Galois programming model for
// unordered algorithms with on-demand deterministic execution, reproducing
// "Deterministic Galois: On-demand, Portable and Parameterless"
// (Nguyen, Lenharth, Pingali — ASPLOS 2014).
//
// # Programming model
//
// A program is a pool of tasks executed by ForEach. Tasks may read and
// write shared state and may create new tasks, but they must be cautious:
// all shared reads happen first, through Ctx.Acquire on the abstract
// location (Lockable) guarding the data, and all shared writes are deferred
// into a single Ctx.OnCommit closure — the task's failsafe point.
//
//	stats := galois.ForEach(nodes, func(ctx *galois.Ctx[*Node], n *Node) {
//		ctx.Acquire(&n.Lockable)          // neighborhood
//		for _, m := range n.Neighbors {
//			ctx.Acquire(&m.Lockable)
//		}
//		v := compute(n)
//		ctx.OnCommit(func(c *galois.Ctx[*Node]) {
//			n.Value = v                    // write phase
//			c.Push(next(n))                // S(t): new tasks
//		})
//	}, galois.WithSched(galois.Deterministic))
//
// A commit handler that needs only the item and the state the task acquired
// can be built once per loop, outside the body, and read the item from
// c.Item(): one closure for the loop instead of one per task.
//
// # On-demand determinism
//
// The same body runs under two schedulers, selected by WithSched:
//
//   - NonDeterministic: the speculative scheduler of the paper's §2.1 —
//     locations are locked as they are acquired and conflicting tasks
//     abort and retry. Fast, but the set of serializations (and therefore
//     the output of algorithms with many legal outputs) varies run to run.
//   - Deterministic: DIG scheduling (§3) — tasks execute in rounds; each
//     round inspects a window of tasks, implicitly builds the interference
//     graph with priority marks, selects a deterministic independent set,
//     and commits it. The schedule, and hence the output, is a pure
//     function of the input: independent of thread count, machine and
//     timing (portable), with an adaptive window that needs no per-machine
//     tuning (parameterless).
package galois

import (
	"galois/internal/cachesim"
	"galois/internal/core"
	"galois/internal/marks"
	"galois/internal/obs"
	"galois/internal/stats"
)

// Sched selects the scheduler for ForEach.
type Sched = core.Sched

// Scheduler values.
const (
	// NonDeterministic is the speculative scheduler (paper §2.1).
	NonDeterministic = core.NonDeterministic
	// Deterministic is the DIG scheduler (paper §3).
	Deterministic = core.Deterministic
)

// Ctx is the per-task execution context. See the core package for the
// method set: Acquire, OnCommit, Push, Item, TID, Threads, Deterministic,
// CountAtomic.
type Ctx[T any] = core.Ctx[T]

// PlanOf returns the executing task's plan: a *P zeroed at the body's first
// call and handed to the task's commit handler again, so the body can build
// what its commit needs into engine storage and a handler built once per
// loop can read it back beside Ctx.Item. See core.PlanOf.
func PlanOf[P, T any](ctx *Ctx[T]) *P { return core.PlanOf[P](ctx) }

// Lockable is the mark word embedded in every abstract location that tasks
// may conflict on. The zero value is ready to use.
type Lockable = marks.Lockable

// Stats summarizes one ForEach run: commits, aborts, rounds, atomic
// updates, elapsed time.
type Stats = stats.Stats

// Tracer records abstract-location accesses for locality analysis
// (paper §5.4). Create with NewTracer and attach with WithProfile.
type Tracer = cachesim.Tracer

// NewTracer returns a locality tracer for nthreads workers. The thread
// count must match the WithThreads value of the run it profiles.
func NewTracer(nthreads int) *Tracer { return cachesim.NewTracer(nthreads) }

// Option configures ForEach.
type Option func(*core.Options)

// WithSched selects the scheduler. The default is NonDeterministic.
func WithSched(s Sched) Option { return func(o *core.Options) { o.Sched = s } }

// WithThreads sets the number of worker goroutines. Values below 1 select
// GOMAXPROCS. Under the Deterministic scheduler the output is identical for
// every thread count — the paper's portability property.
func WithThreads(n int) Option { return func(o *core.Options) { o.Threads = n } }

// WithoutContinuation disables the continuation optimization of §3.3: the
// deterministic scheduler then re-executes each selected task from scratch
// in its commit phase (the baseline of §3.2). Output is unaffected; this
// exists for the Figure 10 ablation.
func WithoutContinuation() Option { return func(o *core.Options) { o.Continuation = false } }

// WithFIFO selects an approximately-FIFO worklist for the non-deterministic
// scheduler (default: chunked LIFO with stealing). A scheduling hint in the
// Galois sense — it changes performance, not correctness — that
// level-structured algorithms such as BFS need to avoid pathological
// traversal orders. Ignored by the deterministic scheduler.
func WithFIFO() Option { return func(o *core.Options) { o.FIFO = true } }

// WithPriority selects an ordered-by-integer-metric (OBIM) worklist for the
// non-deterministic scheduler: lower fn values drain first, best-effort,
// clamped into [0, levels) buckets (levels <= 0 means 64). The classic
// Galois scheduling hint for data-driven algorithms (bfs by distance,
// preflow-push by height): it changes performance, never correctness, and
// the deterministic scheduler ignores it. fn must take the loop's item
// type; a mismatch panics when the loop starts.
func WithPriority[T any](fn func(T) int, levels int) Option {
	return func(o *core.Options) {
		o.Priority = fn
		o.PriorityLevels = levels
	}
}

// TraceSink receives scheduler trace events. The standard implementation is
// *Trace (NewTrace); custom sinks must tolerate concurrent Emit calls from
// distinct thread ids without synchronizing them against each other.
type TraceSink = obs.Sink

// Trace is the standard trace sink: per-thread lock-free buffers of
// scheduler events with observational timestamps. After a traced run it can
// be exported as Chrome trace-event JSON (WriteChromeTrace, loadable in
// Perfetto or chrome://tracing), rendered as canonical timestamp-free lines
// (CanonicalLines), or summarized (Summary).
type Trace = obs.Trace

// NewTrace returns a trace sink sized for runs of up to nthreads workers
// (values below 1 mean 1). Attaching it to a run with more threads panics
// when the loop starts.
func NewTrace(nthreads int) *Trace { return obs.NewTrace(nthreads) }

// Metrics is a registry of named counters and histograms populated by the
// schedulers: per-round committed/failed distributions, acquire-failure
// depths, and the run totals of Stats. Recording is lock-free per thread.
type Metrics = obs.Registry

// NewMetrics returns a metrics registry sized for runs of up to nthreads
// workers (values below 1 mean 1).
func NewMetrics(nthreads int) *Metrics { return obs.NewRegistry(nthreads) }

// WithTrace attaches a trace sink to the run. Tracing is non-perturbing:
// structural events are emitted only from serial sections of the
// schedulers, so a traced deterministic run commits byte-identical output
// to an untraced one — timestamps are observational, never read back.
func WithTrace(sink TraceSink) Option { return func(o *core.Options) { o.Sink = sink } }

// WithMetrics attaches a metrics registry to the run. Counters accumulate
// across runs sharing the registry.
func WithMetrics(m *Metrics) Option { return func(o *core.Options) { o.Metrics = m } }

// WithProfile attaches a locality tracer that records every Acquire for the
// reuse-distance analysis of §5.4.
func WithProfile(t *Tracer) Option { return func(o *core.Options) { o.Profile = t } }

// ForEach executes the task pool `items` with body under the configured
// scheduler and returns run statistics. It corresponds to the foreach
// iterator of the paper's Figure 1a.
//
// The body must follow the cautious-task protocol documented on Ctx:
// Acquire every location it reads, defer every shared write into OnCommit,
// and create tasks only through Push.
//
// Each call allocates and discards its run state (workers, arenas,
// contexts) unless an Engine is supplied with WithEngine; programs that
// run loops repeatedly should hold one Engine and pass it to every run.
func ForEach[T any](items []T, body func(*Ctx[T], T), opts ...Option) Stats {
	opt := core.Defaults()
	for _, o := range opts {
		o(&opt)
	}
	return core.ForEach(items, body, opt)
}

// Engine retains run state across loops: the persistent worker pool,
// barriers, the statistics collector and, per item type, generation arenas,
// execution contexts and gather and formation buffers. The first run on an engine
// allocates this state; later runs of similar shape reuse it, so the steady
// state of a repeatedly driven engine allocates (near) zero per run.
//
// Reuse never changes results: an engine-reused deterministic run commits
// byte-identical output — and emits the identical event sequence — to a
// fresh ForEach with the same options, at every thread count.
//
// An engine runs one loop at a time and may be passed to any loop item
// type. A second RunOn/ForEachOn while one is in flight panics immediately
// (an atomic in-use guard) rather than corrupting retained state — the
// contract that makes engines safe to check in and out of a pool, as the
// galoisd serving layer does: hand an idle engine to any job, never share
// one between concurrent jobs. Close releases its worker goroutines.
type Engine = core.Engine

// NewEngine returns an engine whose runs default to the configured options.
// Only WithThreads is consulted at construction (it sets the default worker
// count, GOMAXPROCS if unset); per-run options are given to ForEachOn or to
// ForEach via WithEngine as usual.
func NewEngine(opts ...Option) *Engine {
	opt := core.Defaults()
	for _, o := range opts {
		o(&opt)
	}
	return core.NewEngine(opt.Threads)
}

// WithEngine directs ForEach to run on e, reusing its retained state,
// instead of building and discarding run state for the call.
func WithEngine(e *Engine) Option { return func(o *core.Options) { o.Engine = e } }

// ForEachOn is ForEach on an engine: identical semantics, but all run state
// comes from e and is retained for the next run. Equivalent to passing
// WithEngine(e).
func ForEachOn[T any](e *Engine, items []T, body func(*Ctx[T], T), opts ...Option) Stats {
	opt := core.Defaults()
	for _, o := range opts {
		o(&opt)
	}
	return core.RunOn(e, items, body, opt)
}
