package main

import (
	"fmt"
	"strings"
	"testing"

	"galois"
	"galois/internal/harness"
	"galois/internal/inputs"
)

// TestRunLoopRejectsBadCells: a cell that is not app/variant, or names an
// app the catalog does not have or a variant its app does not have (pfp
// and sssp have no pbbs), fails the whole spec before any cell runs.
func TestRunLoopRejectsBadCells(t *testing.T) {
	in := harness.MakeInputs(inputs.SmallScale())
	for _, spec := range []string{"bfs", "bfs/g-d,nosuch/g-d", "bfs/nosuch", "bfs/g-d/x", "pfp/pbbs", "sssp/g-d,sssp/pbbs"} {
		var out strings.Builder
		if err := runLoop(&out, in, spec, 1, 2); err == nil {
			t.Errorf("-loop %q accepted", spec)
		}
		if out.Len() != 0 {
			t.Errorf("-loop %q ran cells before rejecting: %q", spec, out.String())
		}
	}
	if err := runLoop(new(strings.Builder), in, "bfs/g-d", 0, 2); err == nil {
		t.Error("-reps 0 accepted")
	}
}

// TestRunLoopPrintsTheOneThreadFingerprint: the single-cell front door runs
// a cell on a shared engine at two threads and prints the fingerprint of
// the one-thread run of the same cell — a fine-grained graph app, a mesh
// app and a served app outside the paper's five.
func TestRunLoopPrintsTheOneThreadFingerprint(t *testing.T) {
	in := harness.MakeInputs(inputs.SmallScale())
	apps := []string{"bfs", "dt", "sssp"}
	want := make(map[string]uint64)
	for _, app := range apps {
		want[app] = in.RunOnce(app, "g-d", 1, nil).Fingerprint
	}
	eng := galois.NewEngine(galois.WithThreads(2))
	defer eng.Close()
	in.Engine = eng

	var out strings.Builder
	if err := runLoop(&out, in, "bfs/g-d, dt/g-d,sssp/g-d", 1, 2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(apps) {
		t.Fatalf("%d lines for %d cells:\n%s", len(lines), len(apps), out.String())
	}
	for i, app := range apps {
		prefix := app + "/g-d threads=2 reps=1 "
		fp := fmt.Sprintf(" fingerprint=%#x", want[app])
		if !strings.HasPrefix(lines[i], prefix) || !strings.HasSuffix(lines[i], fp) {
			t.Errorf("line %d = %q, want %q...%q", i, lines[i], prefix, fp)
		}
	}
}
