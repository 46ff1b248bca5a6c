package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"galois/internal/stats"
)

// chromeEvent is one record of the Chrome trace-event format, the JSON
// dialect Perfetto and chrome://tracing load. Complete events ("X") carry
// a duration; counter events ("C") plot their args; metadata events ("M")
// name processes and threads; instant events ("i") mark points.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// WriteChromeTrace serializes the buffered events as Chrome trace-event
// JSON. Each ForEach run becomes one process (pid); DIG generations and
// rounds become nested duration slices on the coordinator track, the
// adaptive window and commit ratio become counter tracks, and
// non-deterministic worker summaries become instant events on their
// worker's track.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	var out []chromeEvent
	type span struct{ ts int64 }
	var runs []runSpan

	// Structural events are all emitted on tid 0, in order.
	pid := 0
	var runStart, genStart, roundStart span
	var roundWindow int64
	var rec stats.Round // the current round, as far as its events have been seen
	for _, ev := range t.bufs[0].evs {
		ev.decodeRound(&rec)
		switch ev.Kind {
		case KindRunStart:
			pid++
			runStart = span{ev.TS}
			sched := "nondet"
			if ev.Args[0] == 1 {
				sched = "det"
			}
			out = append(out,
				chromeEvent{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{
					"name": fmt.Sprintf("galois run %d (%s, %d threads)", pid, sched, ev.Args[1])}},
				chromeEvent{Name: "thread_name", Ph: "M", PID: pid, TID: 0,
					Args: map[string]any{"name": "coordinator"}})
		case KindRunEnd:
			out = append(out, chromeEvent{Name: "run", Ph: "X",
				TS: us(runStart.ts), Dur: us(ev.TS - runStart.ts), PID: pid, TID: 0,
				Args: map[string]any{"commits": ev.Args[0], "aborts": ev.Args[1], "rounds": ev.Args[2]}})
			runs = append(runs, runSpan{pid: pid, start: runStart.ts, end: ev.TS})
		case KindGenStart:
			genStart = span{ev.TS}
		case KindGenEnd:
			out = append(out, chromeEvent{Name: fmt.Sprintf("generation %d", ev.Gen), Ph: "X",
				TS: us(genStart.ts), Dur: us(ev.TS - genStart.ts), PID: pid, TID: 0,
				Args: map[string]any{"produced": ev.Args[0]}})
		case KindGenSort:
			out = append(out, chromeEvent{Name: "gen-sort", Ph: "i",
				TS: us(ev.TS), PID: pid, TID: 0, S: "t",
				Args: map[string]any{"tasks": ev.Args[0]}})
		case KindRoundStart:
			roundStart = span{ev.TS}
			roundWindow = ev.Args[0]
		case KindRoundEnd:
			out = append(out, chromeEvent{Name: fmt.Sprintf("round %d", rec.Round), Ph: "X",
				TS: us(roundStart.ts), Dur: us(ev.TS - roundStart.ts), PID: pid, TID: 0,
				Args: map[string]any{"window": roundWindow, "selected": rec.Window,
					"committed": rec.Committed, "failed": rec.Failed}})
		case KindPhases:
			// Three phase slices nested under the round slice, laid out
			// end to end from the round start using the measured
			// durations.
			ts := roundStart.ts
			for _, ph := range [...]struct {
				name string
				ns   int64
			}{{"inspect", rec.InspectNS}, {"execute", rec.ExecuteNS}, {"coordinate", rec.CoordinateNS}} {
				args := map[string]any{"ns": ph.ns}
				if ph.name == "coordinate" {
					// The round's barrier-crossing count rides with the
					// phase that pays for it.
					args["barriers"] = rec.Barriers
				}
				out = append(out, chromeEvent{Name: ph.name, Ph: "X",
					TS: us(ts), Dur: us(ph.ns), PID: pid, TID: 0,
					Args: args})
				ts += ph.ns
			}
		case KindWindow:
			out = append(out,
				chromeEvent{Name: "window", Ph: "C", TS: us(ev.TS), PID: pid,
					Args: map[string]any{"size": rec.WindowAfter}},
				chromeEvent{Name: "commit ratio (permille)", Ph: "C", TS: us(ev.TS), PID: pid,
					Args: map[string]any{"ratio": rec.CommitPermille()}})
		case KindSuspend:
			out = append(out, chromeEvent{Name: ev.Kind.String(), Ph: "C", TS: us(ev.TS), PID: pid,
				Args: map[string]any{"tasks": rec.Window}})
		case KindResume:
			out = append(out, chromeEvent{Name: ev.Kind.String(), Ph: "C", TS: us(ev.TS), PID: pid,
				Args: map[string]any{"tasks": rec.Committed}})
		case KindWorker:
			out = append(out, workerInstant(ev, 0, pidAt(runs, pid, ev.TS)))
		}
	}
	// Worker summaries from the other threads. Their run attribution uses
	// the observational timestamp — acceptable because the Chrome export
	// is rendering-only, never compared.
	for tid := 1; tid < len(t.bufs); tid++ {
		for _, ev := range t.bufs[tid].evs {
			if ev.Kind == KindWorker {
				out = append(out, workerInstant(ev, tid, pidAt(runs, pid, ev.TS)))
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeDoc{TraceEvents: out, DisplayTimeUnit: "ms"})
}

func workerInstant(ev Event, tid, pid int) chromeEvent {
	return chromeEvent{Name: "worker done", Ph: "i", TS: us(ev.TS), PID: pid, TID: tid, S: "t",
		Args: map[string]any{"commits": ev.Args[0], "aborts": ev.Args[1]}}
}

// runSpan is one run's [start, end] timestamp interval, used to attribute
// worker events to their run in the Chrome export.
type runSpan struct {
	pid        int
	start, end int64
}

// pidAt finds the run whose span contains ts; fallback covers events
// stamped after the run-end event was stamped (the worker raced the
// coordinator's clock read, not its barrier).
func pidAt(runs []runSpan, fallback int, ts int64) int {
	for _, r := range runs {
		if ts >= r.start && ts <= r.end {
			return r.pid
		}
	}
	return fallback
}

// ValidateChromeTrace checks that data parses as Chrome trace-event JSON
// with a non-empty traceEvents array whose records all carry a name and a
// phase. It returns the event count.
func ValidateChromeTrace(data []byte) (int, error) {
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("not valid trace JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return 0, errors.New("trace has no traceEvents")
	}
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" || ev.Ph == "" {
			return 0, fmt.Errorf("traceEvents[%d] missing name or ph", i)
		}
	}
	return len(doc.TraceEvents), nil
}
