package core

import (
	"galois/internal/obs"
	"galois/internal/stats"
)

// emit forwards ev to the run's trace sink, if any. Structural scheduler
// events (run, generation, round, window) are emitted only from serial
// sections — before workers fork, after they join, or inside a barrier
// callback, which the last worker to arrive runs while the others wait — so
// the event sequence is a pure function of the schedule and never perturbs
// it.
func emit(sink obs.Sink, tid int, ev obs.Event) {
	if sink != nil {
		sink.Emit(tid, ev)
	}
}

// coreMetrics bundles the registry instruments the schedulers record into.
// All instruments are per-thread and lock-free to record, so attaching a
// registry does not add synchronization to the run.
type coreMetrics struct {
	// tasksPerRound counts committed tasks per deterministic round.
	tasksPerRound *obs.Histogram
	// abortsPerRound counts failed tasks per deterministic round.
	abortsPerRound *obs.Histogram
	// failDepth is the neighborhood size a task had acquired when it lost a
	// location, recorded by the scheduler once per lost inspect or attempt.
	failDepth *obs.Histogram
	// phaseInspect/phaseExec/phaseCoord are the per-round wall durations
	// of the three DIG round phases, in nanoseconds. They quantify the
	// serial coordination fraction the parallel coordinator removes;
	// purely observational (never read back by the scheduler).
	phaseInspect *obs.Histogram
	phaseExec    *obs.Histogram
	phaseCoord   *obs.Histogram
	// barriers counts barrier crossings of the round loop — measured at
	// the crossings themselves (each barrier callback increments once), so
	// barriers/round is a recorded quantity, not an estimate.
	barriers *obs.Counter
	// barrierParks/barrierWaitNS are para.Barrier's own counters for the
	// run's waiters: waits that parked, and nanoseconds spent in waits slow
	// enough to be timed. They depend on the machine and the moment, so
	// they live here only — never in stats.Stats or a receipt.
	barrierParks  *obs.Counter
	barrierWaitNS *obs.Counter
}

// newCoreMetrics registers the scheduler instruments in reg, or returns nil
// when no registry is attached.
func newCoreMetrics(reg *obs.Registry) *coreMetrics {
	if reg == nil {
		return nil
	}
	return &coreMetrics{
		tasksPerRound:  reg.Histogram("round.committed", obs.Pow2Bounds(1<<20)),
		abortsPerRound: reg.Histogram("round.failed", obs.Pow2Bounds(1<<20)),
		failDepth:      reg.Histogram("acquire.fail_depth", obs.Pow2Bounds(1<<12)),
		phaseInspect:   reg.Histogram("round.inspect_ns", obs.Pow2Bounds(1<<30)),
		phaseExec:      reg.Histogram("round.execute_ns", obs.Pow2Bounds(1<<30)),
		phaseCoord:     reg.Histogram("round.coordinate_ns", obs.Pow2Bounds(1<<30)),
		barriers:       reg.Counter("round.barriers"),
		barrierParks:   reg.Counter("galois_barrier_parks_total"),
		barrierWaitNS:  reg.Counter("galois_barrier_wait_ns_total"),
	}
}

// round feeds one round record into the per-round instruments.
func (m *coreMetrics) round(r stats.Round) {
	m.phaseInspect.Observe(0, r.InspectNS)
	m.phaseExec.Observe(0, r.ExecuteNS)
	m.phaseCoord.Observe(0, r.CoordinateNS)
	m.barriers.Add(0, r.Barriers)
	m.tasksPerRound.Observe(0, int64(r.Committed))
	m.abortsPerRound.Observe(0, int64(r.Failed))
}
