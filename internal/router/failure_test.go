package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"galois/internal/serve"
	"galois/internal/session"
)

// TestBackendDownMidBurst kills one of two backends and pushes a burst of
// distinct det jobs through the router, half of them placed on the dead
// one: every job must still succeed (dial errors retry onto the survivor
// — safe because the request never reached admission), the dead backend
// must eject, and the survivor must have received each job exactly once
// — zero duplicate executions.
func TestBackendDownMidBurst(t *testing.T) {
	ctx := context.Background()
	cl := newCluster(t, 2, Config{EjectAfter: 1, Retries: 2})
	cl.backs[0].Close() // backend 0 dies; router does not know yet

	// Distinct seeds so nothing is served from the result cache: each job
	// is a real execution we can count.
	const jobs = 8
	seeds := make([]uint64, jobs)
	next := [2]uint64{100, 100}
	for i := range seeds {
		seeds[i] = seedOn(t, cl.rt, i%2, next[i%2])
		next[i%2] = seeds[i] + 1
	}
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = cl.client.Submit(ctx, serve.Spec{
				Kind: "bfs", Variant: "g-d", Scale: "small", Seed: seeds[i]})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d failed despite a healthy survivor: %v", i, err)
		}
	}

	dead, alive := cl.rt.Backends()[0], cl.rt.Backends()[1]
	if dead.State() != Ejected {
		t.Fatalf("dead backend state = %s, want ejected (EjectAfter=1)", dead.State())
	}
	if got := alive.requests.Load(); got != jobs {
		t.Fatalf("survivor received %d job requests, want exactly %d (no duplicates, no losses)", got, jobs)
	}
	if cl.rt.retries.Load() == 0 {
		t.Fatalf("burst against a dead backend recorded zero retries")
	}
}

// TestZeroRetriesMeansOneAttempt pins Retries: 0 as "no retry": a dial
// error against a dead backend is one attempt and a 502, even with a
// healthy backend next in line.
func TestZeroRetriesMeansOneAttempt(t *testing.T) {
	cl := newCluster(t, 2, Config{Retries: 0})
	cl.backs[0].Close()

	status, _, body := postRaw(t, cl.front.URL+"/jobs",
		serve.Spec{Kind: "bfs", Variant: "g-d", Scale: "small", Seed: seedOn(t, cl.rt, 0, 1)})
	if status != http.StatusBadGateway {
		t.Fatalf("dial error with Retries 0: status %d (%s), want 502", status, body)
	}
	if got := cl.rt.retries.Load(); got != 0 {
		t.Fatalf("router.retries = %d with Retries 0, want 0", got)
	}
	if got := cl.rt.Backends()[1].requests.Load(); got != 0 {
		t.Fatalf("healthy backend received %d requests, want 0 (no retry onto it)", got)
	}
}

// TestSessionCreateRetriesDialError: session creation takes the same
// retrying path as /jobs. With probing off and round-robin's first pick a
// dead address, POST /sessions retries onto the live backend — a dial
// error proves the request never reached admission — and the session's
// batches stick to that backend.
func TestSessionCreateRetriesDialError(t *testing.T) {
	cl := newCluster(t, 2, Config{Retries: 1})
	cl.backs[0].Close() // a keyless request's first pick is backend 0
	live := cl.backs[1].URL

	status, owner, body := postRaw(t, cl.front.URL+"/sessions",
		session.InitSpec{Kind: "sssp", Scale: "small", Seed: 1})
	if status != http.StatusCreated {
		t.Fatalf("create with a dead first backend: status %d (%s), want 201", status, body)
	}
	if owner != live {
		t.Fatalf("session created on %s, want the live backend %s", owner, live)
	}
	if got := cl.rt.retries.Load(); got != 1 {
		t.Fatalf("router.retries = %d, want 1", got)
	}
	var si serve.SessionInfo
	if err := json.Unmarshal(body, &si); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := 0; i < 2; i++ {
		status, served, body := postRaw(t, cl.front.URL+"/sessions/"+si.ID+"/batches",
			session.BatchSpec{Op: "reweight", Edges: 8, Seed: uint64(i + 1)})
		if status != http.StatusOK {
			t.Fatalf("batch %d: status %d: %s", i, status, body)
		}
		if served != live {
			t.Fatalf("batch %d served by %s, owner is %s", i, served, live)
		}
	}
}

// TestNoRetryAfterAdmission pins the retry-safety boundary: a backend
// that accepts the connection and then dies mid-request may already have
// admitted the work, so the router must surface 502 — not replay the job
// on another backend.
func TestNoRetryAfterAdmission(t *testing.T) {
	var aHits, bHits atomic.Int64
	// Backend A accepts, reads nothing more, and severs the connection —
	// a crash after the request reached it.
	tsA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		aHits.Add(1)
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	defer tsA.Close()
	sB := serve.NewServer(serve.Config{Workers: 1, QueueDepth: 8})
	realB := httptest.NewServer(sB.Handler())
	defer func() {
		_ = sB.Shutdown(context.Background())
		realB.Close()
	}()
	tsB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		bHits.Add(1)
		realB.Config.Handler.ServeHTTP(w, r)
	}))
	defer tsB.Close()

	rt, err := New(Config{
		Backends:     []BackendSpec{{URL: tsA.URL}, {URL: tsB.URL}},
		Retries:      3,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	status, _, body := postRaw(t, front.URL+"/jobs",
		serve.Spec{Kind: "bfs", Variant: "g-d", Scale: "small", Seed: seedOn(t, rt, 0, 1)})
	if status != http.StatusBadGateway {
		t.Fatalf("mid-request death: status %d (%s), want 502", status, body)
	}
	if got := aHits.Load(); got != 1 {
		t.Fatalf("backend A hit %d times, want 1", got)
	}
	if got := bHits.Load(); got != 0 {
		t.Fatalf("backend B hit %d times after A admitted-then-died — duplicate execution risk", got)
	}
	if got := rt.retries.Load(); got != 0 {
		t.Fatalf("router retried %d times on a post-dial failure", got)
	}
}

// toggleBackend wraps a real serve handler behind a kill switch: while
// down, every request — including /healthz — answers 503.
func toggleBackend(t *testing.T) (*httptest.Server, *atomic.Bool) {
	t.Helper()
	s := serve.NewServer(serve.Config{Workers: 1, QueueDepth: 8})
	h := s.Handler()
	down := &atomic.Bool{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		_ = s.Shutdown(context.Background())
		ts.Close()
	})
	return ts, down
}

// TestHalfOpenRecovery drives the health state machine end to end:
// consecutive probe failures eject; while ejected the backend gets no
// traffic; after the cooldown one failed recovery probe re-ejects with a
// fresh cooldown; one successful probe restores traffic.
func TestHalfOpenRecovery(t *testing.T) {
	ctx := context.Background()
	ts, down := toggleBackend(t)
	rt, err := New(Config{
		Backends:     []BackendSpec{{URL: ts.URL}},
		EjectAfter:   2,
		RecoverAfter: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	client := serve.NewClient(front.URL, front.Client())
	b := rt.Backends()[0]

	// Healthy and serving.
	if _, err := client.Submit(ctx, serve.Spec{Kind: "bfs", Variant: "g-d", Scale: "small"}); err != nil {
		t.Fatalf("healthy submit: %v", err)
	}

	// Two failed probes eject (EjectAfter=2).
	down.Store(true)
	rt.ProbeOnce()
	if b.State() != Healthy {
		t.Fatalf("state after 1 failed probe = %s, want still healthy", b.State())
	}
	rt.ProbeOnce()
	if b.State() != Ejected {
		t.Fatalf("state after 2 failed probes = %s, want ejected", b.State())
	}

	// Ejected backends get no traffic: the healthy set is empty.
	_, err = client.Submit(ctx, serve.Spec{Kind: "bfs", Variant: "g-d", Scale: "small"})
	var ae *serve.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("submit with sole backend ejected: %v, want 503", err)
	}

	// Cooldown elapses but the recovery probe fails: re-ejected, fresh
	// cooldown, one more ejection on the counter.
	time.Sleep(10 * time.Millisecond)
	rt.ProbeOnce()
	if b.State() != Ejected {
		t.Fatalf("state after failed recovery probe = %s, want re-ejected", b.State())
	}
	if got := b.ejections.Load(); got != 2 {
		t.Fatalf("ejections = %d, want 2 (initial + failed half-open)", got)
	}

	// Backend comes back: cooldown, one good probe, healthy, serving.
	down.Store(false)
	time.Sleep(10 * time.Millisecond)
	rt.ProbeOnce()
	if b.State() != Healthy {
		t.Fatalf("state after successful recovery probe = %s, want healthy", b.State())
	}
	if _, err := client.Submit(ctx, serve.Spec{Kind: "bfs", Variant: "g-d", Scale: "small"}); err != nil {
		t.Fatalf("submit after recovery: %v", err)
	}
}

// TestSessionBackendLoss checks the stickiness failure mode: when a
// session's owner dies, requests on that session surface 502 — the
// session is never silently re-created on a surviving backend.
func TestSessionBackendLoss(t *testing.T) {
	cl := newCluster(t, 2, Config{EjectAfter: 1})
	status, owner, body := postRaw(t, cl.front.URL+"/sessions",
		session.InitSpec{Kind: "sssp", Scale: "small", Seed: 1})
	if status != http.StatusCreated {
		t.Fatalf("create: status %d: %s", status, body)
	}
	var si serve.SessionInfo
	if err := json.Unmarshal(body, &si); err != nil {
		t.Fatalf("decode: %v", err)
	}

	// Kill the owner.
	var survivor *serve.Client
	for i, ts := range cl.backs {
		if ts.URL == owner {
			ts.Close()
		} else {
			survivor = serve.NewClient(cl.backs[i].URL, nil)
		}
	}

	status, _, body = postRaw(t, cl.front.URL+"/sessions/"+si.ID+"/batches",
		session.BatchSpec{Op: "reweight", Edges: 8, Seed: 1})
	if status != http.StatusBadGateway {
		t.Fatalf("batch after owner loss: status %d (%s), want 502", status, body)
	}
	if !bytes.Contains(body, []byte("not rerouted")) {
		t.Fatalf("502 body does not state the pinning contract: %s", body)
	}

	// The survivor must not have grown a session.
	h, err := survivor.Healthz(context.Background())
	if err != nil {
		t.Fatalf("survivor healthz: %v", err)
	}
	if h.SessionsLive != 0 {
		t.Fatalf("survivor has %d live sessions — the lost session was re-created elsewhere", h.SessionsLive)
	}
}

// TestSessionEvicted410 checks eviction passes through untouched: a batch
// against a closed session returns the backend's own 410 (the chain is
// sealed, not lost), and the sealed chain still verifies via the router.
func TestSessionEvicted410(t *testing.T) {
	ctx := context.Background()
	cl := newCluster(t, 1, Config{})
	si, err := cl.client.CreateSession(ctx, session.InitSpec{Kind: "sssp", Scale: "small", Seed: 2})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := cl.client.SessionBatch(ctx, si.ID, session.BatchSpec{Op: "reweight", Edges: 8, Seed: 1}); err != nil {
		t.Fatalf("batch: %v", err)
	}
	if _, err := cl.client.CloseSession(ctx, si.ID); err != nil {
		t.Fatalf("close: %v", err)
	}

	_, err = cl.client.SessionBatch(ctx, si.ID, session.BatchSpec{Op: "reweight", Edges: 8, Seed: 2})
	var ae *serve.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusGone {
		t.Fatalf("batch on sealed session: %v, want 410 Gone", err)
	}

	out, err := cl.client.SessionVerify(ctx, si.ID, "", 0)
	if err != nil {
		t.Fatalf("verify sealed chain: %v", err)
	}
	if !out.Match {
		t.Fatalf("sealed chain failed verify: %+v", out)
	}
}

// TestBackpressurePassThrough checks 429 + Retry-After from a backend
// reach the client unchanged and count as propagated backpressure.
func TestBackpressurePassThrough(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprint(w, `{"ok":true}`)
			return
		}
		w.Header().Set("Retry-After", "7")
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()
	rt, err := New(Config{Backends: []BackendSpec{{URL: ts.URL}}})
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := http.Post(front.URL+"/jobs", "application/json",
		strings.NewReader(`{"kind":"bfs","variant":"g-d","scale":"small"}`))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want 7 (propagated, not absorbed)", got)
	}
	if got := rt.backpressure.Load(); got != 1 {
		t.Fatalf("backpressure counter = %d, want 1", got)
	}
}

// TestRouterDrain checks Shutdown flips the router to 503 on new work.
func TestRouterDrain(t *testing.T) {
	cl := newCluster(t, 1, Config{})
	if err := cl.rt.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	status, _, body := postRaw(t, cl.front.URL+"/jobs",
		serve.Spec{Kind: "bfs", Variant: "g-d", Scale: "small"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("post while draining: status %d (%s), want 503", status, body)
	}
	if !cl.rt.Snapshot().Draining {
		t.Fatalf("snapshot does not report draining")
	}
}
