package obs

import (
	"fmt"
	"time"

	"galois/internal/stats"
)

// Sink receives trace events from a scheduler. Emit is called with the
// emitting worker's thread id; implementations must support concurrent
// calls from distinct tids without synchronizing them against each other
// (the whole point is to observe without adding happens-before edges).
type Sink interface {
	Emit(tid int, ev Event)
}

// traceBuf is one thread's event buffer, padded so that two workers
// appending concurrently never share a cache line through the slice
// headers.
type traceBuf struct {
	evs []Event
	_   [64 - 24%64]byte
}

// Trace is the standard Sink: per-thread lock-free append buffers plus a
// monotonic clock for observational timestamps. Each tid's buffer is
// written only by that worker, so no locking is needed; readers (Events,
// CanonicalLines, WriteChromeTrace) must run after the traced loop has
// returned, which the scheduler's join guarantees.
type Trace struct {
	start time.Time
	bufs  []traceBuf
}

// NewTrace returns a trace sized for runs of up to `threads` workers.
// Attaching it to a run with more threads panics at loop start.
func NewTrace(threads int) *Trace {
	if threads < 1 {
		threads = 1
	}
	return &Trace{start: time.Now(), bufs: make([]traceBuf, threads)}
}

// Threads returns the number of per-thread buffers.
func (t *Trace) Threads() int { return len(t.bufs) }

// Emit implements Sink: it stamps the event with the time elapsed since
// the trace started and appends it to tid's buffer.
func (t *Trace) Emit(tid int, ev Event) {
	ev.TS = int64(time.Since(t.start))
	b := &t.bufs[tid]
	b.evs = append(b.evs, ev)
}

// Reset drops all buffered events and restarts the trace clock.
func (t *Trace) Reset() {
	for i := range t.bufs {
		t.bufs[i].evs = t.bufs[i].evs[:0]
	}
	t.start = time.Now()
}

// Len returns the total number of buffered events.
func (t *Trace) Len() int {
	n := 0
	for i := range t.bufs {
		n += len(t.bufs[i].evs)
	}
	return n
}

// Events returns a copy of all buffered events in (tid, emission) order.
// Structural DIG events all live on tid 0, so for deterministic runs this
// is exactly emission order.
func (t *Trace) Events() []Event {
	out := make([]Event, 0, t.Len())
	for i := range t.bufs {
		out = append(out, t.bufs[i].evs...)
	}
	return out
}

// CanonicalLines renders every buffered event without timestamps, in
// (tid, emission) order. For DIG runs the result is a pure function of
// the schedule: identical across thread counts, machines and runs.
func (t *Trace) CanonicalLines() []string {
	out := make([]string, 0, t.Len())
	for i := range t.bufs {
		for _, ev := range t.bufs[i].evs {
			out = append(out, ev.Canonical())
		}
	}
	return out
}

// Rounds decodes one stats.Round per DIG round from the buffered events,
// in round order.
func (t *Trace) Rounds() []stats.Round {
	var out []stats.Round
	var rec stats.Round
	for _, ev := range t.bufs[0].evs { // structural events all live on tid 0
		if ev.decodeRound(&rec) {
			out = append(out, rec)
			rec = stats.Round{}
		}
	}
	return out
}

// Summary renders a compact per-run digest of the trace.
func (t *Trace) Summary() string {
	var out string
	run := 0
	var rounds, gens, minW, maxW int
	var rec stats.Round
	for i := range t.bufs {
		for _, ev := range t.bufs[i].evs {
			switch ev.Kind {
			case KindRunStart:
				run++
				rounds, gens, minW, maxW = 0, 0, 0, 0
				sched := "nondet"
				if ev.Args[0] == 1 {
					sched = "det"
				}
				out += fmt.Sprintf("run %d: sched=%s threads=%d items=%d\n",
					run, sched, ev.Args[1], ev.Args[2])
			case KindGenStart:
				gens++
			case KindRoundEnd:
				ev.decodeRound(&rec)
				rounds++
				if minW == 0 || rec.Window < minW {
					minW = rec.Window
				}
				maxW = max(maxW, rec.Window)
			case KindRunEnd:
				out += fmt.Sprintf("  commits=%d aborts=%d generations=%d rounds=%d window=[%d..%d]\n",
					ev.Args[0], ev.Args[1], gens, rounds, minW, maxW)
			}
		}
	}
	return out
}
