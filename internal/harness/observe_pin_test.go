package harness

import (
	"fmt"
	"testing"

	"galois"
)

// TestObserversPinned pins what the two run observers report at small scale:
// the §5.4 locality model behind Figures 11-12 (cachesim.Report at the
// figure's modeled capacity) for every paper app's mark-word variants, and
// the acquire.fail_depth histogram. Neither observer reaches a fingerprint
// or a schedule count, so no other test notices when one moves; the values
// here were recorded before either observer's bookkeeping moved out of the
// engine. A profiled g-d run is serial whatever the thread count, so its t1
// and t2 rows must agree. (A one-worker g-n run never conflicts: its
// fail-depth rows are empty, and pin that no failure is invented.)
func TestObserversPinned(t *testing.T) {
	in := smallInputs()
	locality := []struct {
		app, variant string
		threads      int
		want         string
	}{
		{"bfs", "g-n", 1, "286323 20000 142530 6344.085997"},
		{"bfs", "g-d", 1, "325922 20000 143976 5855.691640"},
		{"bfs", "g-d", 2, "325922 20000 143976 5855.691640"},
		{"bfs", "g-dnc", 1, "500457 20000 143984 3923.392709"},
		{"dmr", "g-n", 1, "223332 43509 5010 638.815341"},
		{"dmr", "g-d", 1, "263487 43892 19508 1040.843526"},
		{"dmr", "g-d", 2, "263487 43892 19508 1040.843526"},
		{"dmr", "g-dnc", 1, "276271 43892 19545 1004.634847"},
		{"dmr", "pbbs", 1, "672641 44545 85597 1772.860609"},
		{"dt", "g-n", 1, "104457 20534 2827 331.698104"},
		{"dt", "g-d", 1, "128801 20877 2609 456.238047"},
		{"dt", "g-d", 2, "128801 20877 2609 456.238047"},
		{"dt", "g-dnc", 1, "133807 20877 2609 444.348012"},
		{"dt", "pbbs", 1, "232035 19994 2892 828.577120"},
		{"mis", "g-n", 1, "439960 20000 157753 4671.669821"},
		{"mis", "g-d", 1, "477534 20000 157539 4587.978773"},
		{"mis", "g-d", 2, "477534 20000 157539 4587.978773"},
		{"mis", "g-dnc", 1, "496805 20000 157539 4433.433597"},
		{"pfp", "g-n", 1, "7500 1324 0 77.988666"},
		{"pfp", "g-d", 1, "7058 1066 0 108.593458"},
		{"pfp", "g-d", 2, "7058 1066 0 108.593458"},
		{"pfp", "g-dnc", 1, "7944 1066 0 104.250073"},
	}
	for _, c := range locality {
		rep := in.profileRun(c.app, c.variant, c.threads)
		got := fmt.Sprintf("%d %d %d %.6f", rep.Accesses, rep.ColdMisses, rep.CapacityMisses, rep.MeanReuseDistance)
		if got != c.want {
			t.Errorf("%s/%s at t%d, locality: got %q, want %q", c.app, c.variant, c.threads, got, c.want)
		}
	}

	failDepth := []struct{ app, variant, want string }{
		{"bfs", "g-d", "[0 0 0 0 0 0 0 0 0 0 0 0 0 0]"},
		{"bfs", "g-n", "[0 0 0 0 0 0 0 0 0 0 0 0 0 0]"},
		{"dt", "g-d", "[0 0 0 0 0 0 0 0 0 0 0 0 0 0]"},
		{"dt", "g-n", "[0 0 0 0 0 0 0 0 0 0 0 0 0 0]"},
	}
	for _, c := range failDepth {
		reg := galois.NewMetrics(1)
		in.Metrics = reg
		in.RunOnce(c.app, c.variant, 1, nil)
		in.Metrics = nil
		got := fmt.Sprint(reg.Histogram("acquire.fail_depth", nil).Counts())
		if got != c.want {
			t.Errorf("%s/%s at t1, acquire.fail_depth buckets: got %q, want %q", c.app, c.variant, got, c.want)
		}
	}
}
