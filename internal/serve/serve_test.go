package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"galois/internal/harness"
	"galois/internal/inputs"
	"galois/internal/obs"
)

// newTestServer returns a started server and an HTTP client bound to it,
// torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		_ = s.Shutdown(context.Background())
		ts.Close()
	})
	return s, NewClient(ts.URL, ts.Client())
}

func submitOK(t *testing.T, c *Client, spec Spec) *JobResult {
	t.Helper()
	res, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("submit %s: %v", spec, err)
	}
	return res
}

// detKinds returns the default registry's kinds (registration order);
// every one supports the deterministic variants.
func detKinds() []string { return []string{"bfs", "dmr", "dt", "mis", "msf", "pfp", "sssp"} }

// TestDeterminismUnderLoad is the subsystem's load-bearing invariant: for
// every deterministic job kind × {g-d, g-dnc}, the fingerprint is
// byte-identical whether the server runs jobs one at a time, under 16-way
// concurrent load mixed with other kinds (including non-deterministic
// jobs), or the work is executed directly in-process — and identical
// across job thread counts — at server GOMAXPROCS 2 and 8.
func TestDeterminismUnderLoad(t *testing.T) {
	for _, procs := range []int{2, 8} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			old := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(old)
			testDeterminismUnderLoad(t)
		})
	}
}

func testDeterminismUnderLoad(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 4, QueueDepth: 128})
	ctx := context.Background()

	// Serial pass: every det cell at threads 1, 2 and 4 must agree —
	// the paper's portability property surfaced through the API.
	serial := make(map[string]string)
	for _, kind := range detKinds() {
		for _, variant := range []string{"g-d", "g-dnc"} {
			var fp string
			for _, threads := range []int{1, 2, 4} {
				res := submitOK(t, c, Spec{Kind: kind, Variant: variant,
					Scale: "small", Seed: 42, Threads: threads})
				if fp == "" {
					fp = res.Receipt.Fingerprint
				} else if res.Receipt.Fingerprint != fp {
					t.Errorf("%s/%s: fingerprint varies with threads: t%d got %s, want %s",
						kind, variant, threads, res.Receipt.Fingerprint, fp)
				}
			}
			serial[kind+"/"+variant] = fp
		}
	}

	// 16-way mixed concurrent load, g-n jobs interleaved as noise: each
	// client walks its own stretch of the kinds × variants matrix, so the
	// 48 requests cover all 21 cells, and every det response must match
	// the serial pass.
	var cells []Spec
	for _, kind := range detKinds() {
		for _, variant := range []string{"g-n", "g-d", "g-dnc"} {
			cells = append(cells, Spec{Kind: kind, Variant: variant, Scale: "small", Seed: 42, Threads: 2})
		}
	}
	const clients, perClient = 16, 3
	errs := make([][]string, clients)
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				spec := cells[(ci*perClient+r)%len(cells)]
				res, err := c.Submit(ctx, spec)
				if err != nil {
					errs[ci] = append(errs[ci], fmt.Sprintf("%s: %v", spec, err))
					continue
				}
				if want := serial[spec.Kind+"/"+spec.Variant]; spec.Deterministic() && res.Receipt.Fingerprint != want {
					errs[ci] = append(errs[ci], fmt.Sprintf("%s under load: fingerprint %s, want %s (serial run)",
						spec, res.Receipt.Fingerprint, want))
				}
			}
		}(ci)
	}
	wg.Wait()
	for _, e := range errs {
		for _, msg := range e {
			t.Error(msg)
		}
	}

	// Direct in-process execution must agree too: every kind through the
	// experiment harness, which builds its inputs once through the same
	// catalog — the dmr cell also proves the server's Exclusive mesh reset
	// reproduces a fresh build.
	in := harness.MakeInputs(inputs.SmallScale())
	for _, app := range detKinds() {
		for _, variant := range []string{"g-d", "g-dnc"} {
			got := fmt.Sprintf("%016x", in.RunOnce(app, variant, 2, nil).Fingerprint)
			if want := serial[app+"/"+variant]; got != want {
				t.Errorf("%s/%s: harness fingerprint %s != served %s", app, variant, got, want)
			}
		}
	}
}

// TestEnginePoolSteadyState pins the engine-reuse property at the serving
// layer: a warmed server handles repeated identical jobs without
// constructing engines — every request after the first is a pool hit.
func TestEnginePoolSteadyState(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2, QueueDepth: 16})
	spec := Spec{Kind: "mis", Variant: "g-d", Scale: "small", Seed: 42, Threads: 2}
	const reps = 10
	for i := 0; i < reps; i++ {
		res := submitOK(t, c, spec)
		if i > 0 && !res.EngineHit {
			t.Errorf("request %d: engine constructed on a warmed server", i)
		}
	}
	pc := s.PoolCounters()
	if pc.Misses != 1 || pc.Transients != 0 || pc.Hits != reps-1 {
		t.Errorf("pool counters after %d identical serial jobs: %+v, want 1 miss, %d hits, 0 transients",
			reps, pc, reps-1)
	}
}

// TestTraceCapture: a job with trace:true returns a structurally valid
// Chrome trace and the identical fingerprint to its untraced twin (the
// obs non-perturbation invariant, end to end through the server).
func TestTraceCapture(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	plain := submitOK(t, c, Spec{Kind: "bfs", Variant: "g-d", Scale: "small", Seed: 42, Threads: 2})
	traced := submitOK(t, c, Spec{Kind: "bfs", Variant: "g-d", Scale: "small", Seed: 42, Threads: 2, Trace: true})
	if len(traced.Trace) == 0 {
		t.Fatal("trace requested but response carries none")
	}
	if _, err := obs.ValidateChromeTrace(traced.Trace); err != nil {
		t.Fatalf("returned trace invalid: %v", err)
	}
	if traced.Receipt.Fingerprint != plain.Receipt.Fingerprint {
		t.Errorf("tracing perturbed the result: %s != %s",
			traced.Receipt.Fingerprint, plain.Receipt.Fingerprint)
	}
	if len(plain.Trace) != 0 {
		t.Error("untraced job response carries a trace")
	}
}

// TestMetricsEndpoint smoke-checks the /metrics text: admission counters,
// per-kind totals and pool lines all present after a couple of jobs.
func TestMetricsEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	submitOK(t, c, Spec{Kind: "pfp", Variant: "g-d", Scale: "small", Seed: 42})
	submitOK(t, c, Spec{Kind: "pfp", Variant: "g-d", Scale: "small", Seed: 42})
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"serve.admit 2", "serve.complete 2",
		"serve.kind.pfp.jobs 2", "serve.kind.pfp.commits ",
		"serve.job.wall_ms total=2",
		"serve.pool.hits 1", "serve.pool.misses 1",
		"serve.queue.depth 0",
	} {
		if !containsLinePrefix(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

func containsLinePrefix(text, prefix string) bool {
	for start := 0; start <= len(text); {
		end := start
		for end < len(text) && text[end] != '\n' {
			end++
		}
		line := text[start:end]
		if len(line) >= len(prefix) && line[:len(prefix)] == prefix {
			return true
		}
		start = end + 1
	}
	return false
}

// TestKindsEndpoint lists the registry in registration order, and the
// raw endpoint additionally advertises the session kinds.
func TestKindsEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	kinds, err := c.Kinds(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := detKinds()
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Errorf("kinds = %v, want %v", kinds, want)
	}

	resp, err := http.Get(c.BaseURL() + "/kinds")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		SessionKinds []string `json:"session_kinds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(body.SessionKinds) != fmt.Sprint([]string{"dmr", "sssp"}) {
		t.Errorf("session_kinds = %v, want [dmr sssp]", body.SessionKinds)
	}
}
