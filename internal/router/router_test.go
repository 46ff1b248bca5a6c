package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"galois/internal/serve"
	"galois/internal/session"
)

// cluster is a test deployment: n real galoisd backends behind one
// router, all on httptest listeners.
type cluster struct {
	rt     *Router
	front  *httptest.Server
	backs  []*httptest.Server
	client *serve.Client
}

func newCluster(t *testing.T, n int, cfg Config) *cluster {
	t.Helper()
	cl := &cluster{}
	for i := 0; i < n; i++ {
		s := serve.NewServer(serve.Config{Workers: 2, QueueDepth: 64})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			_ = s.Shutdown(context.Background())
			ts.Close()
		})
		cl.backs = append(cl.backs, ts)
		cfg.Backends = append(cfg.Backends, BackendSpec{URL: ts.URL})
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = time.Millisecond
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	cl.rt = rt
	cl.front = httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		cl.front.Close()
		rt.Close()
	})
	cl.client = serve.NewClient(cl.front.URL, cl.front.Client())
	return cl
}

// postRaw sends a JSON POST through the router front and returns the
// response status, the X-Galois-Backend header (which backend served it)
// and the body.
func postRaw(t *testing.T, url string, v any) (int, string, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, resp.Header.Get("X-Galois-Backend"), data
}

// seedOn returns the first seed from `from` on whose bfs g-d small spec
// the placement rule picks backend i while every backend is healthy.
// Backend identities hash their URLs, and httptest ports vary, so a test
// that needs a job on a given backend searches for its seed.
func seedOn(t *testing.T, rt *Router, i int, from uint64) uint64 {
	t.Helper()
	for seed := from; seed < from+1000; seed++ {
		body, err := json.Marshal(serve.Spec{Kind: "bfs", Variant: "g-d", Scale: "small", Seed: seed})
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		key, ok := specKey(body)
		if !ok {
			t.Fatalf("seed %d: no spec key", seed)
		}
		if place(rt.backends, key) == rt.backends[i] {
			return seed
		}
	}
	t.Fatalf("no seed in [%d, %d) lands on backend %d", from, from+1000, i)
	return 0
}

// clusterMix is the job mix the determinism matrix routes: deterministic
// cells across kinds and seeds, a thread-count spread, and one
// non-deterministic job to keep the route key-less path exercised.
func clusterMix() []serve.Spec {
	return []serve.Spec{
		{Kind: "bfs", Variant: "g-d", Scale: "small", Seed: 1},
		{Kind: "bfs", Variant: "g-d", Scale: "small", Seed: 2, Threads: 2},
		{Kind: "sssp", Variant: "g-d", Scale: "small", Seed: 1},
		{Kind: "sssp", Variant: "g-dnc", Scale: "small", Seed: 3},
		{Kind: "mis", Variant: "g-d", Scale: "small", Seed: 1, Threads: 2},
		{Kind: "msf", Variant: "g-d", Scale: "small", Seed: 7},
		{Kind: "bfs", Variant: "g-n", Scale: "small", Seed: 1},
	}
}

// semKey identifies a spec's result up to scheduling parameters: thread
// count is deliberately excluded, because the fingerprint must not depend
// on it.
func semKey(s serve.Spec) string {
	return fmt.Sprintf("%s/%s/%s/%d", s.Kind, s.Variant, s.Scale, s.Seed)
}

// TestDeterminismUnderCluster is the subsystem's load-bearing test: the
// same job mix routed through clusters of 1, 2 and 4 backends yields
// byte-identical det fingerprints per spec — equal to a direct
// single-server baseline — and every receipt then verifies through the
// router, i.e. on whichever node the verify round-robin happens to land.
// The mix carries one distinct key per backend that the placement rule
// puts there, and every backend must serve at least one request. Routing
// is behavior-free.
func TestDeterminismUnderCluster(t *testing.T) {
	ctx := context.Background()

	// Baseline: one backend, no router.
	base := serve.NewServer(serve.Config{Workers: 2, QueueDepth: 64})
	bts := httptest.NewServer(base.Handler())
	t.Cleanup(func() {
		_ = base.Shutdown(context.Background())
		bts.Close()
	})
	bc := serve.NewClient(bts.URL, bts.Client())
	want := make(map[string]string)
	baseline := func(t *testing.T, mix []serve.Spec) {
		for _, spec := range mix {
			if _, ok := want[semKey(spec)]; ok || !spec.Deterministic() {
				continue
			}
			res, err := bc.Submit(ctx, spec)
			if err != nil {
				t.Fatalf("baseline %s: %v", spec, err)
			}
			want[semKey(spec)] = res.Receipt.Fingerprint
		}
	}

	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("backends=%d", n), func(t *testing.T) {
			cl := newCluster(t, n, Config{})
			mix := clusterMix()
			for i := range cl.rt.Backends() {
				mix = append(mix, serve.Spec{Kind: "bfs", Variant: "g-d", Scale: "small", Seed: seedOn(t, cl.rt, i, 1000)})
			}
			baseline(t, mix)

			// Submit the mix concurrently so the keyless requests
			// interleave.
			results := make([]*serve.JobResult, len(mix))
			var wg sync.WaitGroup
			errs := make([]error, len(mix))
			for i, spec := range mix {
				wg.Add(1)
				go func(i int, spec serve.Spec) {
					defer wg.Done()
					results[i], errs[i] = cl.client.Submit(ctx, spec)
				}(i, spec)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("submit %s: %v", mix[i], err)
				}
			}
			for i, spec := range mix {
				if !spec.Deterministic() {
					continue
				}
				got := results[i].Receipt.Fingerprint
				if got != want[semKey(spec)] {
					t.Errorf("%s: fingerprint %s under %d backends, want %s (baseline)",
						spec, got, n, want[semKey(spec)])
				}
			}

			// Every receipt verifies through the router — whichever
			// backend the verify round-robin lands on.
			for i, spec := range mix {
				if !spec.Deterministic() {
					continue
				}
				vr, err := cl.client.Verify(ctx, results[i].Receipt)
				if err != nil {
					t.Fatalf("verify %s: %v", spec, err)
				}
				if !vr.Match {
					t.Errorf("%s: receipt failed cluster verify: expect %s got %s",
						spec, vr.Expect, vr.Got)
				}
			}

			// Every backend served work: the cluster was exercised, not
			// one node behind a label.
			for i, b := range cl.rt.Backends() {
				if b.requests.Load() == 0 {
					t.Errorf("backend %d of %d received no requests, though the mix has a key placed on it", i, n)
				}
			}
		})
	}
}

// TestCrossNodeVerify pins the headline portability demo: a receipt
// produced on backend A verifies on backend B. Verify routes round-robin,
// not by key, so with two backends a handful of verifies provably hits a
// node that did not produce the receipt.
func TestCrossNodeVerify(t *testing.T) {
	cl := newCluster(t, 2, Config{})
	spec := serve.Spec{Kind: "sssp", Variant: "g-d", Scale: "small", Seed: 11}

	status, producer, body := postRaw(t, cl.front.URL+"/jobs", spec)
	if status != http.StatusOK {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	if producer == "" {
		t.Fatalf("submit response missing X-Galois-Backend")
	}
	var res serve.JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decode job result: %v", err)
	}

	crossNode := false
	for i := 0; i < 4; i++ {
		vstatus, verifier, vbody := postRaw(t, cl.front.URL+"/verify", res.Receipt)
		if vstatus != http.StatusOK {
			t.Fatalf("verify: status %d: %s", vstatus, vbody)
		}
		var vr serve.VerifyResult
		if err := json.Unmarshal(vbody, &vr); err != nil {
			t.Fatalf("decode verify result: %v", err)
		}
		if !vr.Match {
			t.Fatalf("verify on %s failed: expect %s got %s (produced on %s)",
				verifier, vr.Expect, vr.Got, producer)
		}
		if verifier != producer {
			crossNode = true
		}
	}
	if !crossNode {
		t.Fatalf("4 round-robin verifies over 2 backends never left the producer %s", producer)
	}
}

// TestPolicyPicks exercises the placement rule and the keyless
// round-robin directly, and pins that New accepts no other rule.
func TestPolicyPicks(t *testing.T) {
	mk := func(urls ...string) *Router {
		rt := &Router{}
		for _, u := range urls {
			rt.backends = append(rt.backends, newBackend(u))
		}
		return rt
	}

	t.Run("consistent-hash", func(t *testing.T) {
		bs := mk("http://a", "http://b", "http://c", "http://d").backends
		owner := make(map[uint64]*Backend)
		for key := uint64(1); key <= 200; key++ {
			b := place(bs, key)
			if again := place(bs, key); again != b {
				t.Fatalf("key %d not sticky: %s then %s", key, b.URL, again.URL)
			}
			owner[key] = b
		}
		// Rendezvous minimal disruption: dropping one backend remaps only
		// the keys it owned; every other key keeps its owner.
		reduced := []*Backend{bs[0], bs[1], bs[3]} // bs[2] ejected
		for key, b := range owner {
			nb := place(reduced, key)
			if b != bs[2] && nb != b {
				t.Fatalf("key %d moved from %s to %s though its owner stayed healthy", key, b.URL, nb.URL)
			}
			if b == bs[2] && nb == bs[2] {
				t.Fatalf("key %d still routed to the removed backend", key)
			}
		}
	})

	t.Run("round-robin", func(t *testing.T) {
		// Keyless requests cycle through the healthy set in configured
		// order rather than all landing on one node.
		rt := mk("http://a", "http://b", "http://c")
		for i := 0; i < 9; i++ {
			if got := rt.pick(rt.backends, 0, false); got != rt.backends[i%3] {
				t.Fatalf("pick %d = %s, want %s", i, got.URL, rt.backends[i%3].URL)
			}
		}
	})

	t.Run("unknown", func(t *testing.T) {
		for _, policy := range []string{"round-robin", "least-loaded", "weighted", "zork"} {
			if _, err := New(Config{Backends: []BackendSpec{{URL: "http://a"}}, Policy: policy}); err == nil {
				t.Errorf("policy %q accepted", policy)
			}
		}
		if _, err := New(Config{Backends: []BackendSpec{{URL: "http://a", Weight: 2}}}); err == nil {
			t.Error("weight 2 accepted")
		}
		for _, cfg := range []Config{
			{Backends: []BackendSpec{{URL: "http://a"}}},
			{Backends: []BackendSpec{{URL: "http://a", Weight: 1}}, Policy: "consistent-hash"},
		} {
			rt, err := New(cfg)
			if err != nil {
				t.Errorf("New(%+v): %v", cfg, err)
				continue
			}
			rt.Close()
		}
	})
}

// TestSessionSticky checks sessions route by the id → backend map: every
// request on a session lands on the backend that created it, the chain
// verifies through the router, and an id this router never saw is a 404.
func TestSessionSticky(t *testing.T) {
	ctx := context.Background()
	cl := newCluster(t, 2, Config{})

	type sess struct {
		id    string
		owner string
	}
	var sessions []sess
	for i := 0; i < 2; i++ {
		status, owner, body := postRaw(t, cl.front.URL+"/sessions",
			session.InitSpec{Kind: "sssp", Scale: "small", Seed: uint64(i + 1)})
		if status != http.StatusCreated {
			t.Fatalf("create session %d: status %d: %s", i, status, body)
		}
		var si serve.SessionInfo
		if err := json.Unmarshal(body, &si); err != nil {
			t.Fatalf("decode session info: %v", err)
		}
		sessions = append(sessions, sess{id: si.ID, owner: owner})
	}
	if sessions[0].owner == sessions[1].owner {
		t.Fatalf("round-robin put both sessions on %s", sessions[0].owner)
	}
	if cl.rt.SessionsTracked() != 2 {
		t.Fatalf("sessions tracked = %d, want 2", cl.rt.SessionsTracked())
	}

	// Batches stick to the owner — interleaved across sessions on purpose.
	for round := 0; round < 3; round++ {
		for _, s := range sessions {
			status, served, body := postRaw(t,
				cl.front.URL+"/sessions/"+s.id+"/batches",
				session.BatchSpec{Op: "reweight", Edges: 16, Seed: uint64(round + 1)})
			if status != http.StatusOK {
				t.Fatalf("batch on %s: status %d: %s", s.id, status, body)
			}
			if served != s.owner {
				t.Fatalf("batch on %s served by %s, owner is %s — stickiness broken", s.id, served, s.owner)
			}
		}
	}

	// The chain verifies through the router (replayed on the owner).
	for _, s := range sessions {
		out, err := cl.client.SessionVerify(ctx, s.id, "", 0)
		if err != nil {
			t.Fatalf("session verify %s: %v", s.id, err)
		}
		if !out.Match || out.Links != 4 {
			t.Fatalf("session %s verify = %+v, want match over 4 links", s.id, out)
		}
	}

	// GET and DELETE route by the same map.
	si, err := cl.client.Session(ctx, sessions[0].id)
	if err != nil || si.ID != sessions[0].id {
		t.Fatalf("session get: %v (%+v)", err, si)
	}
	if _, err := cl.client.CloseSession(ctx, sessions[0].id); err != nil {
		t.Fatalf("session close: %v", err)
	}

	// An id with no recorded owner is the router's own 404.
	status, _, body := postRaw(t, cl.front.URL+"/sessions/nosuchid/batches",
		session.BatchSpec{Op: "reweight", Edges: 1, Seed: 1})
	if status != http.StatusNotFound {
		t.Fatalf("unknown session id: status %d: %s", status, body)
	}
}

// TestRouterObservability spot-checks the router's own /healthz and
// /metrics surfaces.
func TestRouterObservability(t *testing.T) {
	cl := newCluster(t, 2, Config{})

	resp, err := http.Get(cl.front.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	var h Healthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if !h.OK || h.Healthy != 2 || len(h.Backends) != 2 {
		t.Fatalf("healthz = %+v, want ok with 2 healthy backends", h)
	}

	mresp, err := http.Get(cl.front.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer mresp.Body.Close()
	data, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{"router.backends 2",
		"router.backend.0.state healthy", "router.backend.1.state healthy"} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("metrics missing %q:\n%s", want, data)
		}
	}

	// /kinds proxies to a backend.
	kinds, err := cl.client.Kinds(context.Background())
	if err != nil || len(kinds) == 0 {
		t.Fatalf("kinds through router: %v (%v)", err, kinds)
	}
}
