package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"galois"
	"galois/internal/inputs"
	"galois/internal/session"
	"galois/internal/stats"
)

// The admission tests run every case over the three kinds of work that
// reach a worker through submit: a one-shot job, a session batch and a
// chain verify. Each is driven through the server's HTTP handler
// in-process, so a test can cancel the request context a handler sees.

// workCell is one kind of admitted work. Its runs block a worker for the
// slow kinds' duration, signalling each start.
type workCell struct {
	name string
	// prepare readies s for the cell's requests and returns the session
	// id they address ("" when there is none yet).
	prepare func(t *testing.T, s *Server, started chan struct{}) string
	// request builds one request; timeoutMS > 0 bounds the work where the
	// request can carry a bound (verify runs under the server's
	// DefaultTimeout).
	request func(t *testing.T, s *Server, id string, timeoutMS int64) workRequest
	// completed names the worker-side counter a finished run bumps.
	completed string
}

// workRequest is one request of a cell: its path and body for the
// in-process handler, and the same request sent by the Client method for
// its kind of work.
type workRequest struct {
	path      string
	body      any
	viaClient func(ctx context.Context, c *Client) error
}

func jobRequest(spec Spec) workRequest {
	return workRequest{"/jobs", spec, func(ctx context.Context, c *Client) error {
		_, err := c.Submit(ctx, spec)
		return err
	}}
}

func batchRequest(id string, b session.BatchSpec) workRequest {
	return workRequest{"/sessions/" + id + "/batches", b, func(ctx context.Context, c *Client) error {
		_, err := c.SessionBatch(ctx, id, b)
		return err
	}}
}

func workCells() []workCell {
	noSession := func(*testing.T, *Server, chan struct{}) string { return "" }
	return []workCell{
		{
			name:    "job",
			prepare: noSession,
			request: func(_ *testing.T, _ *Server, _ string, timeoutMS int64) workRequest {
				return jobRequest(Spec{Kind: "slow", Scale: "small", TimeoutMS: timeoutMS})
			},
			completed: "serve.complete",
		},
		{
			// Each batch on its own session: batches that could run side
			// by side, held back only by the queue.
			name:    "batch",
			prepare: noSession,
			request: func(t *testing.T, s *Server, _ string, timeoutMS int64) workRequest {
				return batchRequest(createSlowSession(t, s), session.BatchSpec{Op: "slow", TimeoutMS: timeoutMS})
			},
			completed: "serve.session.batch",
		},
		{
			// Every batch on one session, whose lock a running batch
			// holds: a later batch must still be admitted, rejected or
			// timed out by the queue, not wait on the lock in its handler.
			name: "batch-same-session",
			prepare: func(t *testing.T, s *Server, _ chan struct{}) string {
				return createSlowSession(t, s)
			},
			request: func(_ *testing.T, _ *Server, id string, timeoutMS int64) workRequest {
				return batchRequest(id, session.BatchSpec{Op: "slow", TimeoutMS: timeoutMS})
			},
			completed: "serve.session.batch",
		},
		{
			name: "verify",
			prepare: func(t *testing.T, s *Server, started chan struct{}) string {
				// A chain with one batch, so the replay runs the slow
				// Apply once. The batch's own budget covers its run
				// whatever the server's default.
				id := createSlowSession(t, s)
				if rec := call(context.Background(), s, "/sessions/"+id+"/batches", session.BatchSpec{Op: "slow", TimeoutMS: 10_000}); rec.Code != http.StatusOK {
					t.Fatalf("preparing the chain: status %d: %s", rec.Code, rec.Body)
				}
				<-started
				return id
			},
			request: func(_ *testing.T, _ *Server, id string, _ int64) workRequest {
				return workRequest{"/sessions/" + id + "/verify", sessionVerifyRequest{}, func(ctx context.Context, c *Client) error {
					_, err := c.SessionVerify(ctx, id, "", 0)
					return err
				}}
			},
			completed: "serve.session.verify",
		},
	}
}

// slowSessionKinds returns one session kind, "slow", whose batches block
// for d (signalling each start on started), the session counterpart of
// slowRegistry.
func slowSessionKinds(d time.Duration, started chan struct{}) *session.KindSet {
	ks := session.NewKindSet()
	ks.Register(&session.Kind{
		Name:  "slow",
		Init:  func(inputs.Scale, uint64) (any, uint64) { return struct{}{}, 1 },
		Canon: func(b *session.BatchSpec) ([]byte, error) { return []byte(b.Op), nil },
		Apply: func(any, session.BatchSpec, []galois.Option) (uint64, uint64, stats.Stats, error) {
			started <- struct{}{}
			time.Sleep(d)
			return 1, 42, stats.Stats{}, nil
		},
	})
	return ks
}

// newSlowServer returns a server whose job and session kinds include the
// slow ones, and a Client of it over HTTP, both shut down with the test.
func newSlowServer(t *testing.T, cfg Config, d time.Duration, started chan struct{}) (*Server, *Client) {
	t.Helper()
	cfg.Registry = slowRegistry(d, started)
	cfg.SessionKinds = slowSessionKinds(d, started)
	return newTestServer(t, cfg)
}

func createSlowSession(t *testing.T, s *Server) string {
	t.Helper()
	rec := call(context.Background(), s, "/sessions", session.InitSpec{Kind: "slow"})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create session: status %d: %s", rec.Code, rec.Body)
	}
	var si SessionInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &si); err != nil {
		t.Fatalf("decode session info: %v", err)
	}
	return si.ID
}

// call drives one POST through s's handler under ctx and returns the
// recorded response.
func (r workRequest) call(ctx context.Context, s *Server) int {
	return call(ctx, s, r.path, r.body).Code
}

func call(ctx context.Context, s *Server, path string, body any) *httptest.ResponseRecorder {
	data, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// TestQueueFullRejects: with one worker busy and the queue at capacity,
// the next submission is rejected with 429 and a Retry-After header —
// explicit backpressure instead of unbounded buffering.
func TestQueueFullRejects(t *testing.T) {
	for _, w := range workCells() {
		t.Run(w.name, func(t *testing.T) {
			started := make(chan struct{}, 8)
			s, c := newSlowServer(t, Config{Workers: 1, QueueDepth: 1}, 300*time.Millisecond, started)
			id := w.prepare(t, s, started)
			ctx := context.Background()

			reqA := w.request(t, s, id, 0)
			resA := make(chan int, 1)
			go func() { resA <- reqA.call(ctx, s) }()
			<-started // A is running
			reqB := w.request(t, s, id, 0)
			resB := make(chan int, 1)
			go func() { resB <- reqB.call(ctx, s) }()
			waitFor(t, func() bool { return len(s.exec.queue) == 1 }) // B is queued

			// The rejected submission goes through the Client, whose
			// APIError is what a caller's backoff reads.
			err := w.request(t, s, id, 0).viaClient(ctx, c)
			ae, ok := err.(*APIError)
			if !ok || ae.Status != http.StatusTooManyRequests {
				t.Fatalf("queue-full submission: got %v, want 429", err)
			}
			if !ae.IsRetryable() || ae.RetryAfter <= 0 {
				t.Errorf("429 without usable Retry-After: %+v", ae)
			}
			// The admitted tasks are unaffected by the rejection.
			if code := <-resA; code != http.StatusOK {
				t.Errorf("task A: status %d", code)
			}
			if code := <-resB; code != http.StatusOK {
				t.Errorf("task B: status %d", code)
			}
		})
	}
}

// TestQueuedJobDeadline: a task whose deadline expires while queued is
// rejected with 504 when a worker reaches it; it never executes.
func TestQueuedJobDeadline(t *testing.T) {
	for _, w := range workCells() {
		t.Run(w.name, func(t *testing.T) {
			started := make(chan struct{}, 8)
			cfg := Config{Workers: 1, QueueDepth: 8}
			if w.name == "verify" {
				cfg.DefaultTimeout = 50 * time.Millisecond
			}
			s, _ := newSlowServer(t, cfg, 250*time.Millisecond, started)
			id := w.prepare(t, s, started)
			ctx := context.Background()

			reqA := w.request(t, s, id, 0)
			if w.name == "verify" {
				// A verify runs under the server's default deadline, set
				// here to B's budget, so a job with a budget of its own
				// holds the worker instead.
				reqA = jobRequest(Spec{Kind: "slow", Scale: "small", TimeoutMS: 10_000})
			}
			resA := make(chan int, 1)
			go func() { resA <- reqA.call(ctx, s) }()
			<-started // A occupies the only worker for 250ms

			// B can only start after A, 250ms from now, but its budget is
			// 50ms.
			reqB := w.request(t, s, id, 50)
			if rec := call(ctx, s, reqB.path, reqB.body); rec.Code != http.StatusGatewayTimeout {
				t.Fatalf("expired queued task: status %d (%s), want 504", rec.Code, rec.Body)
			}
			if code := <-resA; code != http.StatusOK {
				t.Errorf("task A: status %d", code)
			}
			// B never ran: only A signalled started.
			select {
			case <-started:
				t.Error("expired task was executed anyway")
			default:
			}
			if err := s.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			if got := s.Metrics().Counter("serve.timeout").Value(); got != 1 {
				t.Errorf("serve.timeout = %d, want 1", got)
			}
		})
	}
}

// TestRunOutlivesDeadline: a run longer than its deadline is a 504 on
// every path to a worker — a job with the result cache on and off, a job
// on an Exclusive input, a session batch and a chain verify — and the
// admitted task still runs to completion.
func TestRunOutlivesDeadline(t *testing.T) {
	const run, budgetMS = 300 * time.Millisecond, 50
	job := func(name, kind string) workCell {
		return workCell{
			name:    name,
			prepare: func(*testing.T, *Server, chan struct{}) string { return "" },
			request: func(_ *testing.T, _ *Server, _ string, timeoutMS int64) workRequest {
				return jobRequest(Spec{Kind: kind, Scale: "small", TimeoutMS: timeoutMS})
			},
			completed: "serve.complete",
		}
	}
	work := workCells() // job, batch, batch-same-session, verify
	cells := []struct {
		cfg Config
		workCell
	}{
		{Config{CacheBytes: 64 << 20}, job("job-cache-on", "slow")},
		{Config{}, job("job-cache-off", "slow")},
		{Config{CacheBytes: 64 << 20}, job("exclusive", "slow-exclusive")},
		{Config{}, work[1]},
		// A verify carries no deadline of its own: it runs under the
		// server's default, here the budget.
		{Config{DefaultTimeout: budgetMS * time.Millisecond}, work[3]},
	}
	for _, w := range cells {
		t.Run(w.name, func(t *testing.T) {
			started := make(chan struct{}, 8)
			w.cfg.Workers, w.cfg.QueueDepth = 1, 8
			s, _ := newSlowServer(t, w.cfg, run, started)
			id := w.prepare(t, s, started)
			before := s.Metrics().Counter(w.completed).Value()

			req := w.request(t, s, id, budgetMS)
			if rec := call(context.Background(), s, req.path, req.body); rec.Code != http.StatusGatewayTimeout {
				t.Fatalf("run of %v under a %d ms deadline: status %d (%s), want 504", run, budgetMS, rec.Code, rec.Body)
			}
			<-started // the task was admitted and ran
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got := s.Metrics().Counter(w.completed).Value(); got != before+1 {
				t.Errorf("%s = %d after the timed-out task, want %d", w.completed, got, before+1)
			}
		})
	}
}

// TestRequestContextCancel: a submitter that gives up does not cancel the
// admitted task — the worker completes it and the outcome is delivered to
// the buffered channel — but the submitter gets a 504 promptly.
func TestRequestContextCancel(t *testing.T) {
	for _, w := range workCells() {
		t.Run(w.name, func(t *testing.T) {
			started := make(chan struct{}, 8)
			s, _ := newSlowServer(t, Config{Workers: 1, QueueDepth: 8}, 200*time.Millisecond, started)
			id := w.prepare(t, s, started)
			before := s.Metrics().Counter(w.completed).Value()

			ctx, cancel := context.WithCancel(context.Background())
			req := w.request(t, s, id, 0)
			res := make(chan int, 1)
			go func() { res <- req.call(ctx, s) }()
			<-started
			cancel()
			if code := <-res; code != http.StatusGatewayTimeout {
				t.Fatalf("canceled submitter: status %d, want 504", code)
			}
			// The worker still finishes the task and the server drains
			// cleanly.
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got := s.Metrics().Counter(w.completed).Value(); got != before+1 {
				t.Errorf("%s = %d after the abandoned task, want %d", w.completed, got, before+1)
			}
		})
	}
}

// TestDrainingRejects: once Shutdown has begun, every kind of work is
// rejected with 503 before it reaches the queue.
func TestDrainingRejects(t *testing.T) {
	for _, w := range workCells() {
		t.Run(w.name, func(t *testing.T) {
			started := make(chan struct{}, 8)
			s, _ := newSlowServer(t, Config{Workers: 1, QueueDepth: 8}, time.Millisecond, started)
			req := w.request(t, s, w.prepare(t, s, started), 0)
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			if rec := call(context.Background(), s, req.path, req.body); rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("submission while draining: status %d (%s), want 503", rec.Code, rec.Body)
			}
			select {
			case <-started:
				t.Error("a task admitted while draining ran")
			default:
			}
		})
	}
}
