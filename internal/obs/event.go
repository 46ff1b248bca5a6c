package obs

import (
	"fmt"

	"galois/internal/stats"
)

// Kind enumerates the event types the schedulers emit.
type Kind uint8

const (
	// KindRunStart opens a ForEach run.
	// Args: scheduler (0 nondet, 1 det), threads, initial tasks.
	KindRunStart Kind = iota
	// KindRunEnd closes a run. Args: commits, aborts, rounds.
	KindRunEnd
	// KindGenStart opens a DIG generation. Args: tasks in the generation.
	KindGenStart
	// KindGenEnd closes a generation. Args: tasks produced for the next.
	KindGenEnd
	// KindGenSort marks where the next generation's (id(parent), k) order
	// of §3.2 is fixed; no comparison sort runs, the children are read out
	// by parent slot. Args: tasks in the next generation.
	KindGenSort
	// KindRoundStart opens a DIG round. Args: window size, tasks pending
	// beyond the window.
	KindRoundStart
	// KindRoundEnd closes a round. Args: selected (attempted), committed,
	// failed.
	KindRoundEnd
	// KindWindow records one adaptive-window decision (§3.2).
	// Args: size before, size after, commit ratio in permille, grew (0/1).
	KindWindow
	// KindSuspend aggregates continuation suspensions at the failsafe
	// point for one round (§3.3). Args: tasks suspended.
	KindSuspend
	// KindResume aggregates continuation resumptions in the commit phase
	// of one round. Args: tasks resumed.
	KindResume
	// KindWorker is a non-deterministic worker's exit summary.
	// Args: commits, aborts.
	KindWorker
	// KindPhases records the measured per-round coordination cost of one
	// DIG round. Args: inspect ns, execute ns, coordinate ns, barrier
	// crossings. The durations are observational, like TS, and the
	// crossing count depends on the thread count (pipeline choice:
	// parallel rounds cross two barriers, batched serial rounds amortize
	// theirs) — so all four args are excluded from Canonical() and the
	// canonical sequence stays machine- and thread-count-invariant.
	KindPhases

	numKinds
)

var kindNames = [numKinds]string{
	"run-start", "run-end",
	"gen-start", "gen-end", "gen-sort",
	"round-start", "round-end", "window",
	"suspend", "resume", "worker", "phases",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one trace record. Schedulers construct events without a
// timestamp; the sink stamps TS on emission. TS is observational only: it
// is never read by the scheduler and never part of the canonical encoding,
// so two runs of the same input produce identical canonical sequences
// regardless of machine or thread count (under the DIG scheduler).
type Event struct {
	// TS is nanoseconds since the trace started. Rendering only.
	TS int64
	// Kind selects the Args interpretation (see the Kind constants).
	Kind Kind
	// Gen is the DIG generation index (0 for non-generation events).
	Gen int32
	// Round is the DIG round index within its generation (0 for non-round
	// events).
	Round int32
	// Args is the kind-specific payload.
	Args [4]int64
}

// Canonical renders the event without its timestamp — the representation
// whose sequence is thread-count-invariant under the DIG scheduler. The
// run configuration (thread count in KindRunStart) is excluded too: it
// describes the machine, not the schedule.
func (e Event) Canonical() string {
	switch e.Kind {
	case KindRunStart:
		return fmt.Sprintf("run-start sched=%d items=%d", e.Args[0], e.Args[2])
	case KindWorker:
		// Worker summaries only occur under the non-deterministic
		// scheduler, where no invariance is claimed.
		return fmt.Sprintf("worker commits=%d aborts=%d", e.Args[0], e.Args[1])
	case KindPhases:
		// The payload is three wall-clock durations plus a thread-dependent
		// barrier-crossing count — observational like TS, so the canonical
		// form keeps only the event's position.
		return fmt.Sprintf("phases gen=%d round=%d", e.Gen, e.Round)
	default:
		return fmt.Sprintf("%s gen=%d round=%d args=%d,%d,%d,%d",
			e.Kind, e.Gen, e.Round, e.Args[0], e.Args[1], e.Args[2], e.Args[3])
	}
}

// EmitRound renders one round record as the round's closing events, on tid
// 0: phases, round-end, the §3.3 suspend/resume aggregates when the
// continuation optimization is on (every attempted task suspended at its
// failsafe point, the committed ones resumed), and the window decision.
// This function and decodeRound are the only code that knows where a field
// sits in Args.
func EmitRound(sink Sink, r stats.Round, continuation bool) {
	ev := Event{Gen: r.Gen, Round: r.Round}
	emit := func(k Kind, args ...int64) {
		ev.Kind, ev.Args = k, [4]int64{}
		copy(ev.Args[:], args)
		sink.Emit(0, ev)
	}
	emit(KindPhases, r.InspectNS, r.ExecuteNS, r.CoordinateNS, int64(r.Barriers))
	emit(KindRoundEnd, int64(r.Window), int64(r.Committed), int64(r.Failed))
	if continuation {
		emit(KindSuspend, int64(r.Window))
		emit(KindResume, int64(r.Committed))
	}
	grew := int64(0)
	if r.Grew() {
		grew = 1
	}
	emit(KindWindow, int64(r.WindowBefore), int64(r.WindowAfter), r.CommitPermille(), grew)
}

// decodeRound is EmitRound's inverse, one event at a time: it copies what e
// carries into r and reports whether e closes its round (the window
// decision is a round's last event). Events of other kinds leave r alone.
func (e Event) decodeRound(r *stats.Round) (closes bool) {
	switch e.Kind {
	case KindPhases:
		r.Gen, r.Round = e.Gen, e.Round
		r.InspectNS, r.ExecuteNS, r.CoordinateNS = e.Args[0], e.Args[1], e.Args[2]
		r.Barriers = uint64(e.Args[3])
	case KindRoundEnd:
		r.Gen, r.Round = e.Gen, e.Round
		r.Window, r.Committed, r.Failed = int(e.Args[0]), int(e.Args[1]), int(e.Args[2])
	case KindWindow:
		r.WindowBefore, r.WindowAfter = int(e.Args[0]), int(e.Args[1])
		return true
	}
	return false
}
