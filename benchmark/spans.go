package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share Op;
// Parent is the ID of the span that caused this one, -1 for an op's root.
// Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory trace: serve-hit completes tens of
// thousands of ops per second, and the per-layer numbers come from the
// per-op records, not from the span file. Spans past the cap are counted.
const maxSpans = 50_000

// tracer keeps spans in memory and writes them out when the run ends. A nil
// *tracer is the untraced mode: every method is a no-op.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: now()} }

// at converts a wall-clock reading to trace time.
func (t *tracer) at(w time.Time) int64 {
	if t == nil {
		return 0
	}
	return w.Sub(t.t0).Nanoseconds()
}

// add records a finished span and returns its ID (-1 when untraced or over
// the cap). Layers that report a duration through a counter rather than a
// call the benchmark can bracket (Stats.Phase*NS, JobResult.WallNS) are
// recorded this way, laid end to end from their parent's start.
func (t *tracer) add(name string, op, parent int, start, end int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Op: op, Parent: parent, Start: start, End: end})
	return id
}

// around records a span bracketing fn.
func (t *tracer) around(name string, op, parent int, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := now()
	fn()
	t.add(name, op, parent, t.at(start), t.at(now()))
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover. Children are clipped to the parent
// and overlapping children are counted once, so a span's self time plus its
// children's clipped union is exactly its duration.
func selfTimes(spans []span) []int64 {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// write dumps the trace as JSON under dir.
func (t *tracer) write(dir string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := struct {
		Spans   []span `json:"spans"`
		Dropped int    `json:"dropped"`
	}{t.spans, t.dropped}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), data, 0o644)
}
