package core

import (
	"galois/internal/cachesim"
	"galois/internal/obs"
	"galois/internal/para"
)

// Sched selects the scheduler. The paper's "on-demand" property is exactly
// this switch: the same program text runs under either value.
type Sched int

const (
	// NonDeterministic is the speculative scheduler of Figure 1b.
	NonDeterministic Sched = iota
	// Deterministic is the DIG scheduler of Figure 2.
	Deterministic
)

// String implements fmt.Stringer.
func (s Sched) String() string {
	switch s {
	case NonDeterministic:
		return "nondet"
	case Deterministic:
		return "det"
	default:
		return "unknown"
	}
}

// Options configures a ForEach execution. The zero value is not meaningful;
// use Defaults and apply functional options from the galois package.
type Options struct {
	// Sched selects the scheduler.
	Sched Sched
	// Threads is the number of worker goroutines.
	Threads int

	// Continuation enables the continuation optimization of §3.3 for the
	// deterministic scheduler: tasks suspend at the failsafe point during
	// inspect and resume at commit instead of re-executing from scratch.
	// When disabled, the baseline scheduler of §3.2 re-executes each
	// selected task in validate mode.
	Continuation bool

	// LocalityInterleave enables the §3.3 round-placement optimization:
	// tasks adjacent in iteration order are dealt into different rounds.
	LocalityInterleave bool

	// WindowInit is the initial window size for a generation of n tasks;
	// 0 means the default policy max(defaultWindowMin, n/windowInitDivisor).
	// Only tests set it, as they set LocalityInterleave: the public API
	// has no window knob, because §3.2's policy needs none.
	WindowInit int

	// FIFO selects an approximately-FIFO worklist for the
	// non-deterministic scheduler instead of the default chunked-LIFO
	// with stealing. A scheduling hint in the Galois sense: it changes
	// performance (level-structured algorithms such as BFS need it to
	// avoid pathological traversal orders) but not correctness. The DIG
	// scheduler ignores it.
	FIFO bool

	// Priority, if non-nil, selects an ordered-by-integer-metric (OBIM)
	// worklist for the non-deterministic scheduler. It must be a
	// func(T) int for the loop's item type T (enforced at run time);
	// lower values drain first, best-effort. Takes precedence over FIFO;
	// ignored by the DIG scheduler. A performance hint only.
	Priority any
	// PriorityLevels is the number of OBIM buckets (default 64);
	// priorities clamp into [0, PriorityLevels).
	PriorityLevels int

	// Sink, if non-nil, receives scheduler trace events (internal/obs).
	// Tracing is non-perturbing: structural events are emitted only from
	// serial sections of the schedulers, so the committed output and the
	// event sequence of a deterministic run are unchanged by attaching a
	// sink. If the sink is an *obs.Trace, it must be sized for at least
	// Threads workers (checked at loop start).
	Sink obs.Sink
	// Metrics, if non-nil, receives counters and histograms describing the
	// run. Must be sized for at least Threads workers.
	Metrics *obs.Registry

	// Profile, if non-nil, records abstract-location accesses for the
	// locality study of §5.4 (Figures 11 and 12).
	Profile *cachesim.Tracer

	// Engine, if non-nil, supplies retained run state (worker pool,
	// barriers, arenas, contexts, scratch) that the run reuses instead of
	// allocating fresh. Reuse does not change committed output or the
	// event sequence. See NewEngine.
	Engine *Engine
}

// Defaults returns the default options: non-deterministic scheduling on all
// available threads with all §3.3 optimizations enabled.
func Defaults() Options {
	return Options{
		Sched:              NonDeterministic,
		Threads:            para.DefaultThreads(),
		Continuation:       true,
		LocalityInterleave: true,
	}
}
