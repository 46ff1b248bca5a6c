package serve

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"galois"
	"galois/internal/inputs"
	"galois/internal/stats"
)

// slowRegistry returns the default registry plus a "slow" kind whose runs
// block for d (signalling each start on started, if non-nil) — the lever
// the admission and shutdown tests use to hold jobs in flight and in
// queue deterministically — and "slow-exclusive", the same run over an
// Exclusive input.
func slowRegistry(d time.Duration, started chan struct{}) *Registry {
	reg := DefaultRegistry()
	run := func(_ any, _ []galois.Option) (uint64, stats.Stats) {
		if started != nil {
			started <- struct{}{}
		}
		time.Sleep(d)
		return 42, stats.Stats{}
	}
	build := func(inputs.Scale, uint64) any { return struct{}{} }
	reg.Register(&Kind{Name: "slow", Build: build, Run: run})
	reg.Register(&Kind{Name: "slow-exclusive", Exclusive: true, Build: build, Reset: func(any) {}, Run: run})
	return reg
}

// TestShutdownDrainsAdmittedJobs pins the shutdown contract: with jobs
// in flight and queued, Shutdown completes every admitted job and returns
// its receipt, new submissions are rejected with 503, and nothing is
// silently dropped.
func TestShutdownDrainsAdmittedJobs(t *testing.T) {
	started := make(chan struct{}, 8)
	s := NewServer(Config{Workers: 1, QueueDepth: 8,
		Registry: slowRegistry(100*time.Millisecond, started)})
	ctx := context.Background()
	spec := Spec{Kind: "slow", Scale: "small"}

	const jobs = 3
	var wg sync.WaitGroup
	results := make([]*JobResult, jobs)
	errs := make([]error, jobs)
	wg.Add(jobs)
	for i := 0; i < jobs; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Execute(ctx, spec)
		}(i)
	}
	// One job running, two queued.
	<-started
	waitFor(t, func() bool { return len(s.exec.queue) == 2 })

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(ctx) }()
	waitFor(t, s.Draining)

	// New work is rejected while draining...
	if _, err := s.Execute(ctx, spec); status(err) != http.StatusServiceUnavailable {
		t.Errorf("submission while draining: got %v, want 503", err)
	}

	// ...but everything admitted completes and returns a receipt.
	wg.Wait()
	for i := 0; i < jobs; i++ {
		if errs[i] != nil {
			t.Fatalf("admitted job %d dropped during shutdown: %v", i, errs[i])
		}
		if results[i].Receipt.Fingerprint != "000000000000002a" {
			t.Errorf("job %d receipt fingerprint = %q", i, results[i].Receipt.Fingerprint)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// And the server stays closed.
	if _, err := s.Execute(ctx, spec); status(err) != http.StatusServiceUnavailable {
		t.Errorf("submission after shutdown: got %v, want 503", err)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("second shutdown not idempotent: %v", err)
	}
}

// status extracts an httpError/APIError status, 0 otherwise.
func status(err error) int {
	switch e := err.(type) {
	case *httpError:
		return e.status
	case *APIError:
		return e.Status
	}
	return 0
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
