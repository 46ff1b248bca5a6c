// Package stats collects execution statistics for scheduler runs: commits,
// aborts, atomic mark updates, rounds and per-round commit ratios. These are
// the quantities reported in Figures 4 and 5 of the paper.
//
// Counters are kept per thread in cache-line padded slots and merged on
// demand, so collection does not perturb the parallel execution it measures.
package stats

import (
	"fmt"
	"time"
)

// cacheLine is the assumed cache line size for padding.
const cacheLine = 64

// Tally is a set of per-task event counts. Schedulers accumulate one per
// worker over a stretch of tasks and hand it to Collector.Add, so the hot
// loop touches the collector once per stretch instead of several times per
// task.
type Tally struct {
	Commits   uint64 // tasks that executed to completion (speculative runs; DIG counts rounds)
	Aborts    uint64 // failed task attempts (conflicts; likewise)
	Pushes    uint64 // dynamically created tasks
	AtomicOps uint64 // atomic updates to shared mark state (Figure 5)
	Inspects  uint64 // inspect-phase executions
}

// threadCounters holds one thread's counters, padded to avoid false sharing.
type threadCounters struct {
	Tally
	_ [cacheLine - 5*8%cacheLine]byte
}

// Collector accumulates counters during a single scheduler run. It is sized
// for a fixed number of threads at construction.
type Collector struct {
	threads []threadCounters
	// The per-round totals are written by Round only, from the scheduler's
	// serial sections, so they are plain fields. commits and aborts are a
	// deterministic run's; a speculative run counts its own in threads.
	rounds    uint64
	commits   uint64
	aborts    uint64
	windowSum uint64
	barriers  uint64
	phaseNS   [3]int64 // inspect, execute, coordinate
	start     time.Time
	elapsed   time.Duration
}

// Round is the record of one deterministic-scheduler round: what the
// scheduler reports, once, to the collector, the trace and the metrics
// registry (DESIGN.md §7.3 maps each field to all three). The round-based
// PBBS loops report their rounds with it too, and count commits only there.
type Round struct {
	// Gen is the generation index, Round the round's index within it.
	Gen, Round int32
	// Window is the number of tasks attempted (the policy size clamped to
	// the tasks pending); in a DIG round Committed and Failed partition it.
	Window, Committed, Failed int
	// InspectNS, ExecuteNS and CoordinateNS are the wall durations of the
	// round's three phases; Barriers is the barrier crossings it cost.
	// These four depend on the machine and the thread count; every other
	// field is a pure function of the input.
	InspectNS, ExecuteNS, CoordinateNS int64
	Barriers                           uint64
	// WindowBefore and WindowAfter are the adaptive policy's size going
	// into the round and after its update (§3.2 calculateWindow).
	WindowBefore, WindowAfter int
}

// CommitPermille is the commit ratio that drove the window update, in
// permille so it stays integral in a trace.
func (r Round) CommitPermille() int64 {
	if r.Window == 0 {
		return 0
	}
	return int64(r.Committed) * 1000 / int64(r.Window)
}

// Grew reports whether the window policy grew after the round.
func (r Round) Grew() bool { return r.WindowAfter > r.WindowBefore }

// NewCollector returns a collector for nthreads threads.
func NewCollector(nthreads int) *Collector {
	return &Collector{threads: make([]threadCounters, nthreads)}
}

// Reset prepares a retained collector for another run of nthreads threads,
// zeroing every counter. The per-thread slots are reused (grown only when
// nthreads exceeds the previous high-water mark), so a reused collector
// allocates nothing in steady state.
func (c *Collector) Reset(nthreads int) {
	threads := c.threads
	if nthreads > len(threads) {
		threads = make([]threadCounters, nthreads)
	} else {
		clear(threads)
	}
	*c = Collector{threads: threads}
}

// Start records the beginning of the measured region.
func (c *Collector) Start() { c.start = time.Now() }

// Stop records the end of the measured region.
func (c *Collector) Stop() { c.elapsed = time.Since(c.start) }

// Commit records a committed task on thread tid.
func (c *Collector) Commit(tid int) { c.threads[tid].Commits++ }

// AtomicOp records n atomic shared-memory updates on thread tid. This is the
// paper's proxy for inter-task communication (Figure 5).
func (c *Collector) AtomicOp(tid int, n int) { c.threads[tid].AtomicOps += uint64(n) }

// Inspect records an inspected task on thread tid.
func (c *Collector) Inspect(tid int) { c.threads[tid].Inspects++ }

// Add folds a worker-local tally into thread tid's counters.
func (c *Collector) Add(tid int, t Tally) {
	s := &c.threads[tid]
	s.Commits += t.Commits
	s.Aborts += t.Aborts
	s.Pushes += t.Pushes
	s.AtomicOps += t.AtomicOps
	s.Inspects += t.Inspects
}

// Round folds one deterministic round into the run's totals, its Committed
// and Failed included: under DIG the record is the only count of either.
// Called by the scheduler from a serial section (between barriers).
func (c *Collector) Round(r Round) {
	c.rounds++
	c.commits += uint64(r.Committed)
	c.aborts += uint64(r.Failed)
	c.windowSum += uint64(r.Window)
	c.barriers += r.Barriers
	c.phaseNS[0] += r.InspectNS
	c.phaseNS[1] += r.ExecuteNS
	c.phaseNS[2] += r.CoordinateNS
}

// Snapshot merges all per-thread counters into a Stats value.
func (c *Collector) Snapshot() Stats {
	s := Stats{Commits: c.commits, Aborts: c.aborts}
	for i := range c.threads {
		t := &c.threads[i]
		s.Commits += t.Commits
		s.Aborts += t.Aborts
		s.Pushes += t.Pushes
		s.AtomicOps += t.AtomicOps
		s.Inspects += t.Inspects
	}
	s.Rounds = c.rounds
	s.WindowSum = c.windowSum
	s.Barriers = c.barriers
	s.PhaseInspectNS = c.phaseNS[0]
	s.PhaseExecuteNS = c.phaseNS[1]
	s.PhaseCoordinateNS = c.phaseNS[2]
	s.Elapsed = c.elapsed
	return s
}

// Stats is an immutable summary of one scheduler run.
type Stats struct {
	// Commits is the number of tasks that executed to completion.
	Commits uint64
	// Aborts is the number of failed task attempts (conflicts).
	Aborts uint64
	// Pushes is the number of dynamically created tasks.
	Pushes uint64
	// AtomicOps is the number of atomic updates to shared mark state.
	AtomicOps uint64
	// Inspects is the number of inspect-phase executions (deterministic
	// scheduler only).
	Inspects uint64
	// Rounds is the number of deterministic scheduling rounds.
	Rounds uint64
	// WindowSum is the sum of window sizes over all rounds.
	WindowSum uint64
	// Barriers is the number of barrier crossings the round loop performed —
	// the coordination cost determinism pays. Deterministic for a given
	// (input, thread count): the pipeline choice per round is a pure
	// function of (window, threads, options).
	Barriers uint64
	// PhaseInspectNS/PhaseExecuteNS/PhaseCoordinateNS are total wall time
	// spent in each DIG round phase, in nanoseconds. Observational (wall
	// clock), so unlike every other counter they vary run to run.
	PhaseInspectNS    int64
	PhaseExecuteNS    int64
	PhaseCoordinateNS int64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// AbortRatio returns aborts / (commits + aborts), the paper's abort ratio.
func (s Stats) AbortRatio() float64 {
	total := s.Commits + s.Aborts
	if total == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(total)
}

// CommitsPerMicro returns committed tasks per microsecond of wall time
// (Figure 4's task execution rate).
func (s Stats) CommitsPerMicro() float64 {
	us := s.Elapsed.Seconds() * 1e6
	if us == 0 {
		return 0
	}
	return float64(s.Commits) / us
}

// AtomicsPerMicro returns atomic updates per microsecond (Figure 5's rate).
func (s Stats) AtomicsPerMicro() float64 {
	us := s.Elapsed.Seconds() * 1e6
	if us == 0 {
		return 0
	}
	return float64(s.AtomicOps) / us
}

// MeanWindow returns the average deterministic window size.
func (s Stats) MeanWindow() float64 {
	if s.Rounds == 0 {
		return 0
	}
	return float64(s.WindowSum) / float64(s.Rounds)
}

// Add returns the element-wise sum of s and o (durations add). Useful for
// aggregating phases of one logical run.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Commits:           s.Commits + o.Commits,
		Aborts:            s.Aborts + o.Aborts,
		Pushes:            s.Pushes + o.Pushes,
		AtomicOps:         s.AtomicOps + o.AtomicOps,
		Inspects:          s.Inspects + o.Inspects,
		Rounds:            s.Rounds + o.Rounds,
		WindowSum:         s.WindowSum + o.WindowSum,
		Barriers:          s.Barriers + o.Barriers,
		PhaseInspectNS:    s.PhaseInspectNS + o.PhaseInspectNS,
		PhaseExecuteNS:    s.PhaseExecuteNS + o.PhaseExecuteNS,
		PhaseCoordinateNS: s.PhaseCoordinateNS + o.PhaseCoordinateNS,
		Elapsed:           s.Elapsed + o.Elapsed,
	}
}

// String renders the stats in a compact single-line form.
func (s Stats) String() string {
	return fmt.Sprintf(
		"commits=%d aborts=%d (ratio %.4f) pushes=%d atomics=%d rounds=%d meanWindow=%.1f elapsed=%s",
		s.Commits, s.Aborts, s.AbortRatio(), s.Pushes, s.AtomicOps, s.Rounds, s.MeanWindow(), s.Elapsed)
}
