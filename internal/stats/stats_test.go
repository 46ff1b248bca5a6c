package stats

import (
	"strings"
	"testing"
	"time"
)

func TestCollectorMerge(t *testing.T) {
	c := NewCollector(4)
	for tid := 0; tid < 4; tid++ {
		for i := 0; i <= tid; i++ {
			c.Commit(tid)
		}
		c.Add(tid, Tally{Aborts: 1, Pushes: 1})
		c.AtomicOp(tid, 10)
		c.Inspect(tid)
	}
	c.Round(Round{Window: 100, Committed: 90, Failed: 10, Barriers: 2, InspectNS: 5, ExecuteNS: 6, CoordinateNS: 7})
	c.Round(Round{Window: 50, Committed: 50, Barriers: 1, InspectNS: 1, ExecuteNS: 1, CoordinateNS: 1})
	s := c.Snapshot()
	// A scheduler uses one source or the other; the collector adds both.
	if s.Commits != 1+2+3+4+90+50 {
		t.Fatalf("commits = %d", s.Commits)
	}
	if s.Aborts != 4+10 || s.Pushes != 4 || s.Inspects != 4 {
		t.Fatalf("aborts/pushes/inspects = %d/%d/%d", s.Aborts, s.Pushes, s.Inspects)
	}
	if s.AtomicOps != 40 {
		t.Fatalf("atomics = %d", s.AtomicOps)
	}
	if s.Rounds != 2 || s.WindowSum != 150 {
		t.Fatalf("rounds = %d windowSum = %d", s.Rounds, s.WindowSum)
	}
	if s.MeanWindow() != 75 {
		t.Fatalf("mean window = %v", s.MeanWindow())
	}
	if s.Barriers != 3 || s.PhaseInspectNS != 6 || s.PhaseExecuteNS != 7 || s.PhaseCoordinateNS != 8 {
		t.Fatalf("barriers = %d phases = %d/%d/%d", s.Barriers, s.PhaseInspectNS, s.PhaseExecuteNS, s.PhaseCoordinateNS)
	}
	c.Reset(2)
	if s := c.Snapshot(); s != (Stats{}) {
		t.Fatalf("after Reset: %+v", s)
	}
}

func TestAbortRatio(t *testing.T) {
	var s Stats
	if s.AbortRatio() != 0 {
		t.Fatal("empty ratio should be 0")
	}
	s = Stats{Commits: 75, Aborts: 25}
	if s.AbortRatio() != 0.25 {
		t.Fatalf("ratio = %v", s.AbortRatio())
	}
}

func TestRates(t *testing.T) {
	s := Stats{Commits: 1000, AtomicOps: 2000, Elapsed: time.Millisecond}
	if got := s.CommitsPerMicro(); got != 1.0 {
		t.Fatalf("commits/us = %v", got)
	}
	if got := s.AtomicsPerMicro(); got != 2.0 {
		t.Fatalf("atomics/us = %v", got)
	}
	var zero Stats
	if zero.CommitsPerMicro() != 0 || zero.AtomicsPerMicro() != 0 {
		t.Fatal("zero elapsed should give zero rates")
	}
}

func TestAdd(t *testing.T) {
	a := Stats{Commits: 1, Aborts: 2, Pushes: 3, AtomicOps: 4, Inspects: 5, Rounds: 6, WindowSum: 7, Elapsed: time.Second}
	b := Stats{Commits: 10, Aborts: 20, Pushes: 30, AtomicOps: 40, Inspects: 50, Rounds: 60, WindowSum: 70, Elapsed: time.Second}
	s := a.Add(b)
	if s.Commits != 11 || s.Aborts != 22 || s.Pushes != 33 || s.AtomicOps != 44 ||
		s.Inspects != 55 || s.Rounds != 66 || s.WindowSum != 77 || s.Elapsed != 2*time.Second {
		t.Fatalf("sum = %+v", s)
	}
}

func TestStringContainsFields(t *testing.T) {
	s := Stats{Commits: 42, Aborts: 7}
	str := s.String()
	for _, want := range []string{"commits=42", "aborts=7"} {
		if !strings.Contains(str, want) {
			t.Fatalf("%q missing %q", str, want)
		}
	}
}

func TestStartStop(t *testing.T) {
	c := NewCollector(1)
	c.Start()
	time.Sleep(2 * time.Millisecond)
	c.Stop()
	if c.Snapshot().Elapsed < time.Millisecond {
		t.Fatal("elapsed not measured")
	}
}
