package serve

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestHealthzSnapshot checks the probe target a routing tier depends on:
// GET /healthz reports queue capacity, worker count, pool counters and the
// in-flight gauge, without ever touching an engine.
func TestHealthzSnapshot(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2, QueueDepth: 5})
	ctx := context.Background()

	h, err := c.Healthz(ctx)
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if !h.OK || h.Draining {
		t.Fatalf("fresh server not ok: %+v", h)
	}
	if h.QueueCap != 5 || h.Workers != 2 {
		t.Fatalf("config not reflected: %+v", h)
	}
	if h.InFlight != 0 || h.QueueDepth != 0 {
		t.Fatalf("idle server reports load: %+v", h)
	}
	if h.Pool.Hits != 0 || h.Pool.Misses != 0 {
		t.Fatalf("idle server reports pool traffic: %+v", h)
	}

	// One executed job moves the pool counters (a miss constructs the
	// engine) and leaves the gauges back at zero.
	submitOK(t, c, Spec{Kind: "bfs", Variant: "g-d", Scale: "small"})
	h, err = c.Healthz(ctx)
	if err != nil {
		t.Fatalf("healthz after job: %v", err)
	}
	if h.Pool.Misses == 0 {
		t.Fatalf("pool counters not reflected after a job: %+v", h)
	}
	// The worker decrements after run returns, which is after the outcome
	// reached the client; wait for it to land.
	waitFor(t, func() bool {
		h, err = c.Healthz(ctx)
		return err == nil && h.InFlight == 0 && h.QueueDepth == 0
	})
}

// blockingTask parks a worker until released, making the in-flight gauge
// observable at a known value.
type blockingTask struct {
	started chan struct{}
	release chan struct{}
	done    chan struct{}
}

func (b *blockingTask) run(tid int) {
	close(b.started)
	<-b.release
	close(b.done)
}

// TestHealthzInFlightGauge pins one worker on a blocking task and checks
// the gauge reads 1 while it runs and 0 after it finishes.
func TestHealthzInFlightGauge(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, QueueDepth: 4})
	bt := &blockingTask{
		started: make(chan struct{}),
		release: make(chan struct{}),
		done:    make(chan struct{}),
	}
	if herr := s.exec.admit(bt.run); herr != nil {
		t.Fatalf("admit: %v", herr)
	}
	<-bt.started
	if got := s.Healthz().InFlight; got != 1 {
		t.Fatalf("in_flight while task runs = %d, want 1", got)
	}
	close(bt.release)
	<-bt.done
	// The worker decrements after run returns; wait for it to land.
	deadline := time.Now().Add(2 * time.Second)
	for s.Healthz().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in_flight did not return to 0: %d", s.Healthz().InFlight)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHealthzDraining checks a draining server reports ok:false — the
// signal a router uses to stop sending work before the listener closes.
func TestHealthzDraining(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueDepth: 2})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = s.Shutdown(context.Background())
	}()
	wg.Wait()
	h := s.Healthz()
	if h.OK || !h.Draining {
		t.Fatalf("draining server healthz = %+v, want ok:false draining:true", h)
	}
}
