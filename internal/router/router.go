package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"galois/internal/rescache"
	"galois/internal/serve"
)

// BackendSpec configures one backend of the routed set.
type BackendSpec struct {
	// URL is the backend's base URL ("http://host:port" or "host:port").
	URL string
	// Weight must be 0 or 1: every backend takes an equal share of the
	// key space. The field stays so configurations that spell out a
	// weight of 1 keep building.
	Weight int
}

// Config sizes a Router. Zero values select the documented defaults.
type Config struct {
	// Backends is the routed set, in a fixed order that placement ties
	// and the round-robin refer to. At least one is required.
	Backends []BackendSpec
	// Policy must be "" or "consistent-hash", the one placement rule
	// (place). The field stays so configurations that name the rule
	// keep building.
	Policy string
	// ProbeInterval is the health-probe period. 0 disables the background
	// prober — probes then only happen via ProbeOnce (tests) and passive
	// dial-error observation.
	ProbeInterval time.Duration
	// EjectAfter is the consecutive-failure count that ejects a backend.
	// Default 3.
	EjectAfter int
	// RecoverAfter is the cooldown before an ejected backend re-enters
	// half-open and receives a recovery probe. Default 5s.
	RecoverAfter time.Duration
	// Retries bounds extra attempts after a dial-phase connection error
	// (the one failure class where the request provably never reached
	// admission). 0 means one attempt and no retry; negative values count
	// as 0.
	Retries int
	// RetryBackoff is the base delay between retry attempts, doubled per
	// attempt. Default 25ms.
	RetryBackoff time.Duration
	// MaxBody bounds request bodies (they are buffered for retry
	// replay) and the session-creation responses the router reads.
	// Default 1 MiB.
	MaxBody int64
}

// probeTimeout bounds one probe round-trip.
const probeTimeout = 2 * time.Second

func (c *Config) fillDefaults() {
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.RecoverAfter <= 0 {
		c.RecoverAfter = 5 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
}

// Router is the reverse-proxy tier over a set of galoisd backends. Create
// with New, expose via Handler, stop with Close (or Shutdown for a
// draining stop).
type Router struct {
	cfg Config
	// client is the proxy and probe transport, sized for many concurrent
	// backend connections.
	client   *http.Client
	backends []*Backend
	// rr is the round-robin counter of every request without a spec key.
	// POST /verify is one of them on purpose: audits walk the healthy set
	// and keep replaying receipts on nodes that did not produce them —
	// the portability property exercised on every verify.
	rr  atomic.Uint64
	mux *http.ServeMux

	// sessions maps session id -> owning backend. Sticky by construction:
	// the owner holds the pinned state and hash chain, so routing by
	// anything but this map would be wrong, not just slow.
	sessionsMu sync.RWMutex
	sessions   map[string]*Backend

	// Router-level counters, exported at GET /metrics.
	requests     atomic.Int64 // routed requests accepted
	proxyErrors  atomic.Int64 // attempts that ended in a transport error
	retries      atomic.Int64 // dial-error retries performed
	noBackend    atomic.Int64 // 503s for an empty healthy set
	backpressure atomic.Int64 // 429s propagated from backends

	draining   atomic.Bool
	proberStop chan struct{}
	proberDone sync.WaitGroup
}

// New builds a router over cfg.Backends and starts its health prober
// (when ProbeInterval > 0). All backends start healthy; the first probe
// cycle or dial error corrects that.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("router: no backends configured")
	}
	cfg.fillDefaults()
	if cfg.Policy != "" && cfg.Policy != "consistent-hash" {
		return nil, fmt.Errorf("router: unknown policy %q (the one rule is consistent-hash)", cfg.Policy)
	}
	rt := &Router{
		cfg: cfg,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}},
		sessions: make(map[string]*Backend),
	}
	for i, bs := range cfg.Backends {
		url := bs.URL
		if url == "" {
			return nil, fmt.Errorf("router: backend %d has no URL", i)
		}
		if bs.Weight != 0 && bs.Weight != 1 {
			return nil, fmt.Errorf("router: backend %d has weight %d (every backend weighs 1)", i, bs.Weight)
		}
		if !hasScheme(url) {
			url = "http://" + url
		}
		rt.backends = append(rt.backends, newBackend(url))
	}
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("POST /jobs", rt.handleJobs)
	rt.mux.HandleFunc("POST /verify", rt.handleVerify)
	rt.mux.HandleFunc("GET /kinds", rt.handleKinds)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("POST /sessions", rt.handleSessionCreate)
	rt.mux.HandleFunc("GET /sessions/{id}", rt.handleSessionRouted)
	rt.mux.HandleFunc("DELETE /sessions/{id}", rt.handleSessionRouted)
	rt.mux.HandleFunc("POST /sessions/{id}/batches", rt.handleSessionRouted)
	rt.mux.HandleFunc("POST /sessions/{id}/verify", rt.handleSessionRouted)
	if cfg.ProbeInterval > 0 {
		rt.proberStop = make(chan struct{})
		rt.proberDone.Add(1)
		//detlint:ignore goroutineorder health prober: probe timing is wall-clock policy by design and only moves backends between health states; job results are computed on the backends and are scheduling-independent
		go rt.prober()
	}
	return rt, nil
}

func hasScheme(url string) bool {
	for i := 0; i < len(url); i++ {
		switch url[i] {
		case ':':
			return i+2 < len(url) && url[i+1] == '/' && url[i+2] == '/'
		case '/', '.':
			return false
		}
	}
	return false
}

// Handler returns the router's HTTP interface.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Backends returns the configured backend set (fixed order).
func (rt *Router) Backends() []*Backend { return rt.backends }

// SessionsTracked returns the number of session ids with a recorded
// owner.
func (rt *Router) SessionsTracked() int {
	rt.sessionsMu.RLock()
	defer rt.sessionsMu.RUnlock()
	return len(rt.sessions)
}

// Close stops the health prober. It does not wait for in-flight proxied
// requests; use Shutdown for a draining stop.
func (rt *Router) Close() {
	if rt.proberStop != nil {
		select {
		case <-rt.proberStop:
		default:
			close(rt.proberStop)
		}
		rt.proberDone.Wait()
	}
}

// Shutdown flips the router to draining — every new request is rejected
// with 503 — stops the prober, and waits for in-flight proxied requests
// to finish (or ctx to expire). The backends drain their own admitted
// work; the router only has to stop feeding them.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.draining.Store(true)
	rt.Close()
	for {
		total := int64(0)
		for _, b := range rt.backends {
			total += b.InFlight()
		}
		if total == 0 {
			return nil
		}
		//detlint:ignore goroutineorder shutdown poll: whether ctx expiry or the tick wins changes only when draining stops, never any committed output
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Draining reports whether Shutdown has begun.
func (rt *Router) Draining() bool { return rt.draining.Load() }

// healthyExcept returns the healthy backends not in skip, in configured
// order.
func (rt *Router) healthyExcept(skip map[*Backend]bool) []*Backend {
	out := make([]*Backend, 0, len(rt.backends))
	for _, b := range rt.backends {
		if b.State() == Healthy && !skip[b] {
			out = append(out, b)
		}
	}
	return out
}

// isDialError reports whether err happened in the connect phase, before
// any byte of the request reached the backend. Only these failures are
// safe to retry elsewhere: everything later — reset mid-request, timeout
// awaiting the response — may have been admitted, and galoisd admission
// is a promise to execute, so a retry could run Exclusive or session work
// twice.
func isDialError(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// send proxies one buffered request to b. The caller owns in-flight
// bookkeeping and response relaying.
func (rt *Router) send(r *http.Request, b *Backend, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, b.URL+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	} else if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		b.errors.Add(1)
		rt.proxyErrors.Add(1)
		return nil, err
	}
	b.markSuccess()
	return resp, nil
}

// relay copies a backend response to the client, tagging which backend
// served it (X-Galois-Backend) — the header the cross-node verification
// demo and tests key off. When created is set, a 201 body is read first
// (bounded by MaxBody) and handed to it.
func (rt *Router) relay(w http.ResponseWriter, b *Backend, resp *http.Response, created func(*Backend, []byte)) {
	defer resp.Body.Close()
	var body io.Reader = resp.Body
	if created != nil && resp.StatusCode == http.StatusCreated {
		data, err := io.ReadAll(io.LimitReader(resp.Body, rt.cfg.MaxBody))
		if err != nil {
			rt.writeError(w, http.StatusBadGateway, "backend %s: reading response: %v", b.URL, err)
			return
		}
		created(b, data)
		body = bytes.NewReader(data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("X-Galois-Backend", b.URL)
	if resp.StatusCode == http.StatusTooManyRequests {
		rt.backpressure.Add(1)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, body)
}

func (rt *Router) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// readBody buffers the request body for retry replay, bounded by MaxBody.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBody))
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "reading request: %v", err)
		return nil, false
	}
	return body, true
}

// pick chooses the backend for one attempt: place for a request with a
// spec key, round-robin for one without.
func (rt *Router) pick(cands []*Backend, key uint64, hasKey bool) *Backend {
	if hasKey {
		return place(cands, key)
	}
	return cands[(rt.rr.Add(1)-1)%uint64(len(cands))]
}

// routeForward is the common path of every endpoint not pinned to a
// session: pick a healthy backend, forward, and — only on a dial-phase
// connection error — back off and retry on another. Responses (any
// status) pass through unchanged apart from the X-Galois-Backend tag;
// 429s additionally count as propagated backpressure. created, when set,
// sees the body of a 201 (see relay).
func (rt *Router) routeForward(w http.ResponseWriter, r *http.Request, body []byte, key uint64, hasKey bool, created func(*Backend, []byte)) {
	rt.requests.Add(1)
	tried := make(map[*Backend]bool)
	backoff := rt.cfg.RetryBackoff
	var lastErr error
	var lastB *Backend
	for attempt := 0; attempt <= rt.cfg.Retries; attempt++ {
		cands := rt.healthyExcept(tried)
		if len(cands) == 0 {
			break
		}
		b := rt.pick(cands, key, hasKey)
		b.requests.Add(1)
		b.inflight.Add(1)
		resp, err := rt.send(r, b, body)
		if err == nil {
			rt.relay(w, b, resp, created)
			b.inflight.Add(-1)
			return
		}
		b.inflight.Add(-1)
		lastErr, lastB = err, b
		if !isDialError(err) || r.Context().Err() != nil {
			// The request may have reached admission: surface the failure
			// instead of risking a duplicate execution.
			rt.writeError(w, http.StatusBadGateway, "backend %s: %v", b.URL, err)
			return
		}
		// Connect never happened: mark the failure (repeats eject), skip
		// this backend and retry after a backoff.
		b.markFailure(rt.cfg.EjectAfter, time.Now().UnixNano())
		tried[b] = true
		if attempt < rt.cfg.Retries {
			b.retries.Add(1)
			rt.retries.Add(1)
			time.Sleep(backoff)
			backoff *= 2
		}
	}
	if lastErr != nil {
		rt.writeError(w, http.StatusBadGateway, "backend %s: %v (retries exhausted)", lastB.URL, lastErr)
		return
	}
	rt.noBackend.Add(1)
	rt.writeError(w, http.StatusServiceUnavailable, "no healthy backend")
}

// specKey computes the canonical routing key of a job spec, mirroring the
// backend's own result-cache address (rescache.KeyOf over the spec with
// serve.Spec.WithDefaults applied, as the backend applies it) so place
// lands a repeat spec on the backend whose cache already holds its
// result. A spec that yields no key (bad JSON, g-n) simply routes
// key-less — routing is behavior-free, so a missing key can cost cache
// warmth, never correctness.
func specKey(body []byte) (uint64, bool) {
	var spec serve.Spec
	if err := json.Unmarshal(body, &spec); err != nil {
		return 0, false
	}
	spec = spec.WithDefaults()
	key, err := rescache.KeyOf(spec.Kind, spec.Variant, spec.Scale, spec.Seed, spec.Threads)
	if err != nil {
		return 0, false
	}
	return uint64(key.Low64()), true
}

// --- handlers ---

func (rt *Router) rejectDraining(w http.ResponseWriter) bool {
	if rt.draining.Load() {
		rt.writeError(w, http.StatusServiceUnavailable, "router is draining")
		return true
	}
	return false
}

func (rt *Router) handleJobs(w http.ResponseWriter, r *http.Request) {
	if rt.rejectDraining(w) {
		return
	}
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	key, hasKey := specKey(body)
	rt.routeForward(w, r, body, key, hasKey, nil)
}

func (rt *Router) handleVerify(w http.ResponseWriter, r *http.Request) {
	if rt.rejectDraining(w) {
		return
	}
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	// Any healthy backend can verify any receipt — that is the paper's
	// portability property as a cluster API. A verify carries no key, so
	// it goes round-robin instead of to the receipt's producer, and
	// cross-node replays happen continuously, not just when a test forces
	// them.
	rt.routeForward(w, r, body, 0, false, nil)
}

func (rt *Router) handleKinds(w http.ResponseWriter, r *http.Request) {
	if rt.rejectDraining(w) {
		return
	}
	rt.routeForward(w, r, nil, 0, false, nil)
}

// handleSessionCreate routes a session creation like any other request —
// dial errors retry on another backend — and records which backend owns
// the new id so every subsequent request on the session sticks to it.
// Session creation has no content address (a session is identity, not
// content), so it goes round-robin.
func (rt *Router) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if rt.rejectDraining(w) {
		return
	}
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	rt.routeForward(w, r, body, 0, false, func(b *Backend, created []byte) {
		var si struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(created, &si) == nil && si.ID != "" {
			rt.sessionsMu.Lock()
			rt.sessions[si.ID] = b
			rt.sessionsMu.Unlock()
		}
	})
}

// handleSessionRouted forwards any /sessions/{id}/* request to the id's
// recorded owner. Pinned traffic bypasses health gating — its owner
// either answers or the failure surfaces (502); it is never re-created or
// replayed elsewhere, because only the owner holds the pinned state and
// the chain. Eviction (410) and not-found (404) pass through untouched.
func (rt *Router) handleSessionRouted(w http.ResponseWriter, r *http.Request) {
	if rt.rejectDraining(w) {
		return
	}
	id := r.PathValue("id")
	rt.sessionsMu.RLock()
	b := rt.sessions[id]
	rt.sessionsMu.RUnlock()
	if b == nil {
		rt.writeError(w, http.StatusNotFound, "session %s: no owning backend recorded on this router", id)
		return
	}
	var body []byte
	if r.Method != http.MethodGet {
		var ok bool
		if body, ok = rt.readBody(w, r); !ok {
			return
		}
	}
	rt.requests.Add(1)
	b.requests.Add(1)
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	resp, err := rt.send(r, b, body)
	if err != nil {
		if isDialError(err) {
			b.markFailure(rt.cfg.EjectAfter, time.Now().UnixNano())
		}
		rt.writeError(w, http.StatusBadGateway,
			"session %s owner %s: %v (sessions are pinned; not rerouted)", id, b.URL, err)
		return
	}
	rt.relay(w, b, resp, nil)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "router.backends %d\n", len(rt.backends))
	fmt.Fprintf(&buf, "router.requests %d\n", rt.requests.Load())
	fmt.Fprintf(&buf, "router.proxy.errors %d\n", rt.proxyErrors.Load())
	fmt.Fprintf(&buf, "router.retries %d\n", rt.retries.Load())
	fmt.Fprintf(&buf, "router.no_backend %d\n", rt.noBackend.Load())
	fmt.Fprintf(&buf, "router.backpressure.429 %d\n", rt.backpressure.Load())
	fmt.Fprintf(&buf, "router.sessions.tracked %d\n", rt.SessionsTracked())
	for i, b := range rt.backends {
		fmt.Fprintf(&buf, "router.backend.%d.url %s\n", i, b.URL)
		fmt.Fprintf(&buf, "router.backend.%d.state %s\n", i, b.State())
		fmt.Fprintf(&buf, "router.backend.%d.inflight %d\n", i, b.InFlight())
		fmt.Fprintf(&buf, "router.backend.%d.requests %d\n", i, b.requests.Load())
		fmt.Fprintf(&buf, "router.backend.%d.errors %d\n", i, b.errors.Load())
		fmt.Fprintf(&buf, "router.backend.%d.retries %d\n", i, b.retries.Load())
		fmt.Fprintf(&buf, "router.backend.%d.ejections %d\n", i, b.ejections.Load())
		fmt.Fprintf(&buf, "router.backend.%d.probes %d\n", i, b.probes.Load())
	}
	_, _ = w.Write(buf.Bytes())
}

// Healthz is the router's own load/liveness snapshot.
type Healthz struct {
	OK       bool `json:"ok"`
	Draining bool `json:"draining"`
	// Healthy counts backends currently accepting routed traffic; OK is
	// true while at least one is.
	Healthy  int             `json:"healthy"`
	Backends []BackendHealth `json:"backends"`
}

// BackendHealth is one backend's slice of the router Healthz.
type BackendHealth struct {
	URL       string `json:"url"`
	State     string `json:"state"`
	InFlight  int64  `json:"in_flight"`
	Requests  int64  `json:"requests"`
	Errors    int64  `json:"errors"`
	Ejections int64  `json:"ejections"`
}

// Snapshot assembles the router's Healthz.
func (rt *Router) Snapshot() Healthz {
	h := Healthz{Draining: rt.draining.Load()}
	for _, b := range rt.backends {
		st := b.State()
		if st == Healthy {
			h.Healthy++
		}
		h.Backends = append(h.Backends, BackendHealth{
			URL:       b.URL,
			State:     st.String(),
			InFlight:  b.InFlight(),
			Requests:  b.requests.Load(),
			Errors:    b.errors.Load(),
			Ejections: b.ejections.Load(),
		})
	}
	h.OK = h.Healthy > 0 && !h.Draining
	return h
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	h := rt.Snapshot()
	status := http.StatusOK
	if !h.OK {
		status = http.StatusServiceUnavailable
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(h)
}

// --- health probing ---

func (rt *Router) prober() {
	defer rt.proberDone.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		//detlint:ignore goroutineorder prober tick-vs-stop: probe timing is wall-clock policy; backend health states never reach committed job output
		select {
		case <-rt.proberStop:
			return
		case <-t.C:
			rt.ProbeOnce()
		}
	}
}

// ProbeOnce runs one probe cycle over every backend: healthy and
// half-open backends are probed directly; ejected backends whose cooldown
// has elapsed move to half-open and get their recovery probe. Exported so
// tests (and operators via SIGUSR-style tooling) can force a cycle
// without waiting out the interval.
func (rt *Router) ProbeOnce() {
	now := time.Now().UnixNano()
	for _, b := range rt.backends {
		switch b.State() {
		case Healthy:
			rt.probe(b, now)
		case Ejected, HalfOpen:
			if b.maybeHalfOpen(rt.cfg.RecoverAfter.Nanoseconds(), now) {
				rt.probe(b, now)
			}
		}
	}
}

// probe sends one GET /healthz to b and folds the outcome into its health
// state. A backend that answers but reports draining (ok:false) counts as
// failed: it is about to stop serving, and routed work should move off it
// before its listener closes.
func (rt *Router) probe(b *Backend, now int64) {
	b.probes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.URL+"/healthz", nil)
	if err != nil {
		b.markFailure(rt.cfg.EjectAfter, now)
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		b.markFailure(rt.cfg.EjectAfter, now)
		return
	}
	defer resp.Body.Close()
	var h serve.Healthz
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&h) != nil || !h.OK {
		b.markFailure(rt.cfg.EjectAfter, now)
		return
	}
	b.markSuccess()
}
