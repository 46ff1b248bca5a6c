package obs

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"galois/internal/stats"
)

// emitDetRun feeds tr the structural event shape of a tiny DIG run: one
// generation, two rounds, continuation aggregates, a window decision each
// round.
func emitDetRun(tr *Trace) {
	tr.Emit(0, Event{Kind: KindRunStart, Args: [4]int64{1, 2, 10, 0}})
	tr.Emit(0, Event{Kind: KindGenStart, Gen: 0, Args: [4]int64{10, 0, 0, 0}})
	tr.Emit(0, Event{Kind: KindRoundStart, Gen: 0, Round: 0, Args: [4]int64{8, 2, 0, 0}})
	EmitRound(tr, detRounds[0], true)
	tr.Emit(0, Event{Kind: KindRoundStart, Gen: 0, Round: 1, Args: [4]int64{4, 0, 0, 0}})
	EmitRound(tr, detRounds[1], false)
	tr.Emit(0, Event{Kind: KindGenEnd, Gen: 0, Round: 2, Args: [4]int64{0, 0, 0, 0}})
	tr.Emit(0, Event{Kind: KindRunEnd, Args: [4]int64{10, 2, 2, 0}})
}

// detRounds are emitDetRun's two rounds: one with failures and a shrinking
// window, one clean and growing.
var detRounds = []stats.Round{
	{Gen: 0, Round: 0, Window: 8, Committed: 6, Failed: 2,
		InspectNS: 300, ExecuteNS: 200, CoordinateNS: 100, Barriers: 2, WindowBefore: 8, WindowAfter: 7},
	{Gen: 0, Round: 1, Window: 4, Committed: 4, Failed: 0,
		InspectNS: 30, ExecuteNS: 20, CoordinateNS: 10, Barriers: 0, WindowBefore: 7, WindowAfter: 14},
}

// TestRoundRenderDecodeIdentity: EmitRound and Trace.Rounds are inverses,
// with the continuation aggregates (which carry nothing the record does not
// already say) and without, and the rendered lines are the canonical form
// the schedule goldens pin.
func TestRoundRenderDecodeIdentity(t *testing.T) {
	for _, continuation := range []bool{true, false} {
		tr := NewTrace(1)
		for _, r := range detRounds {
			EmitRound(tr, r, continuation)
		}
		if got := tr.Rounds(); !slices.Equal(got, detRounds) {
			t.Errorf("continuation=%v: decoded %+v, rendered %+v", continuation, got, detRounds)
		}
		want := []string{
			"phases gen=0 round=0",
			"round-end gen=0 round=0 args=8,6,2,0",
			"suspend gen=0 round=0 args=8,0,0,0",
			"resume gen=0 round=0 args=6,0,0,0",
			"window gen=0 round=0 args=8,7,750,0",
			"phases gen=0 round=1",
			"round-end gen=0 round=1 args=4,4,0,0",
			"suspend gen=0 round=1 args=4,0,0,0",
			"resume gen=0 round=1 args=4,0,0,0",
			"window gen=0 round=1 args=7,14,1000,1",
		}
		if !continuation {
			want = slices.DeleteFunc(want, func(l string) bool {
				return strings.HasPrefix(l, "suspend") || strings.HasPrefix(l, "resume")
			})
		}
		if got := tr.CanonicalLines(); !slices.Equal(got, want) {
			t.Errorf("continuation=%v: canonical lines\n%s\nwant\n%s", continuation,
				strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

func TestTraceBuffersAndCanonical(t *testing.T) {
	tr := NewTrace(2)
	emitDetRun(tr)
	tr.Emit(1, Event{Kind: KindWorker, Args: [4]int64{5, 1, 0, 0}})
	if tr.Len() != 15 {
		t.Fatalf("Len = %d, want 15", tr.Len())
	}
	evs := tr.Events()
	if len(evs) != 15 {
		t.Fatalf("Events len = %d", len(evs))
	}
	// Timestamps are stamped and non-decreasing per buffer.
	for i := 1; i < 14; i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("timestamps not monotonic: %d < %d", evs[i].TS, evs[i-1].TS)
		}
	}
	// Canonical encoding must be timestamp-independent.
	for _, ev := range evs {
		ev2 := ev
		ev2.TS = ev.TS + 123456789
		if ev.Canonical() != ev2.Canonical() {
			t.Fatalf("canonical encoding depends on timestamp: %q", ev.Canonical())
		}
	}
	if n := len(tr.CanonicalLines()); n != 15 {
		t.Fatalf("CanonicalLines len = %d", n)
	}
	// The canonical encoding of run-start excludes the thread count: the
	// same schedule at another thread count must canonicalize identically.
	a := Event{Kind: KindRunStart, Args: [4]int64{1, 2, 10, 0}}
	b := Event{Kind: KindRunStart, Args: [4]int64{1, 8, 10, 0}}
	if a.Canonical() != b.Canonical() {
		t.Fatalf("run-start canonical depends on thread count: %q vs %q", a.Canonical(), b.Canonical())
	}

	if rounds := tr.Rounds(); !slices.Equal(rounds, detRounds) {
		t.Fatalf("rounds = %+v", rounds)
	}

	tr.Reset()
	if tr.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tr.Len())
	}
}

func TestChromeTraceRoundTrips(t *testing.T) {
	tr := NewTrace(2)
	emitDetRun(tr)
	tr.Emit(1, Event{Kind: KindWorker, Args: [4]int64{5, 1, 0, 0}})
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("emitted trace invalid: %v\n%s", err, buf.String())
	}
	if n == 0 {
		t.Fatal("no events exported")
	}
	for _, want := range []string{`"round 0"`, `"round 1"`, `"generation 0"`, `"window"`, `"worker done"`, `"traceEvents"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("chrome trace missing %s", want)
		}
	}
}

func TestValidateChromeTraceRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"not json",
		`{"traceEvents": []}`,
		`{"traceEvents": [{"ph": "X"}]}`,
	} {
		if _, err := ValidateChromeTrace([]byte(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestSummaryMentionsRuns(t *testing.T) {
	tr := NewTrace(1)
	emitDetRun(tr)
	s := tr.Summary()
	for _, want := range []string{"sched=det", "rounds=2", "commits=10"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q in %q", want, s)
		}
	}
}

func TestRegistryCountersAndHistograms(t *testing.T) {
	r := NewRegistry(4)
	c := r.Counter("demo.count")
	c.Add(0, 2)
	c.Add(3, 5)
	if c.Value() != 7 {
		t.Fatalf("counter = %d", c.Value())
	}
	if r.Counter("demo.count") != c {
		t.Fatal("re-registration returned a new counter")
	}

	h := r.Histogram("demo.hist", []int64{1, 2, 4})
	h.Observe(0, 1)
	h.Observe(1, 2)
	h.Observe(2, 3)
	h.Observe(3, 100) // overflow bucket
	counts := h.Counts()
	want := []uint64{1, 1, 1, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
	if h.Total() != 4 {
		t.Fatalf("total = %d", h.Total())
	}

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "demo.count 7") || !strings.Contains(out, "demo.hist total=4") {
		t.Fatalf("text dump = %q", out)
	}
	// Registration order is deterministic: counter before histogram.
	if strings.Index(out, "demo.count") > strings.Index(out, "demo.hist") {
		t.Fatalf("dump not in registration order: %q", out)
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r := NewRegistry(1)
	r.Counter("x")
	r.Histogram("x", []int64{1})
}

func TestPow2Bounds(t *testing.T) {
	got := Pow2Bounds(8)
	want := []int64{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("bounds = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bounds = %v", got)
		}
	}
}

func TestPublishStats(t *testing.T) {
	r := NewRegistry(1)
	PublishStats(r, stats.Stats{Commits: 10, Aborts: 3, Rounds: 4})
	if r.Counter("run.commits").Value() != 10 || r.Counter("run.rounds").Value() != 4 {
		t.Fatal("published stats not visible")
	}
	// A second run accumulates.
	PublishStats(r, stats.Stats{Commits: 1})
	if r.Counter("run.commits").Value() != 11 {
		t.Fatal("counters did not accumulate across runs")
	}
}
