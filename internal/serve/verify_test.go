package serve

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"galois/internal/session"
)

// TestVerifyRoundTrip: a receipt from a completed deterministic job
// re-executes to a match; tampering with the fingerprint or the spec is
// detected.
func TestVerifyRoundTrip(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	res := submitOK(t, c, Spec{Kind: "msf", Variant: "g-d", Scale: "small", Seed: 7, Threads: 2})

	vr, err := c.Verify(ctx, res.Receipt)
	if err != nil {
		t.Fatal(err)
	}
	if !vr.Match || !vr.Deterministic {
		t.Fatalf("genuine receipt did not verify: %+v", vr)
	}

	// Tampered fingerprint: the receipt claims a result the job cannot
	// produce.
	forged := res.Receipt
	forged.Fingerprint = "deadbeefdeadbeef"
	vr, err = c.Verify(ctx, forged)
	if err != nil {
		t.Fatal(err)
	}
	if vr.Match {
		t.Fatal("tampered fingerprint verified as a match")
	}
	if vr.Expect != forged.Fingerprint || vr.Got != res.Receipt.Fingerprint {
		t.Errorf("mismatch report wrong: %+v", vr)
	}

	// Tampered spec (different seed => different input => different
	// fingerprint) must also report a mismatch.
	reseeded := res.Receipt
	reseeded.Spec.Seed++
	vr, err = c.Verify(ctx, reseeded)
	if err != nil {
		t.Fatal(err)
	}
	if vr.Match {
		t.Fatal("receipt with tampered seed verified as a match")
	}

	// A thread-count change is NOT tampering for a deterministic job:
	// the fingerprint is thread-invariant, so the receipt still verifies
	// — the portability property, as an API behavior.
	rethreaded := res.Receipt
	rethreaded.Spec.Threads = 4
	vr, err = c.Verify(ctx, rethreaded)
	if err != nil {
		t.Fatal(err)
	}
	if !vr.Match {
		t.Fatalf("deterministic receipt failed to verify at a different thread count: %+v", vr)
	}
}

// TestVerifyNondetReceipt: g-n receipts are accepted but marked
// non-deterministic — their fingerprints carry no reproducibility promise.
func TestVerifyNondetReceipt(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	res := submitOK(t, c, Spec{Kind: "mis", Variant: "g-n", Scale: "small", Seed: 42, Threads: 2})
	if res.Receipt.Deterministic {
		t.Fatal("g-n receipt marked deterministic")
	}
	vr, err := c.Verify(context.Background(), res.Receipt)
	if err != nil {
		t.Fatal(err)
	}
	if vr.Deterministic {
		t.Error("verify of a g-n receipt reported deterministic")
	}
}

// TestBadRequests covers spec validation at the HTTP boundary.
func TestBadRequests(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, MaxThreads: 4})
	ctx := context.Background()
	for _, spec := range []Spec{
		{Kind: "nope"},
		{Kind: "bfs", Variant: "g-x"},
		{Kind: "bfs", Scale: "galactic"},
		{Kind: "bfs", Threads: 64},
		{Kind: "bfs", TimeoutMS: -1},
	} {
		_, err := c.Submit(ctx, spec)
		ae, ok := err.(*APIError)
		if !ok || ae.Status != http.StatusBadRequest {
			t.Errorf("spec %+v: got %v, want 400", spec, err)
		}
	}
	// Empty-fingerprint receipts are rejected before execution.
	_, err := c.Verify(ctx, Receipt{Spec: Spec{Kind: "bfs"}})
	if ae, ok := err.(*APIError); !ok || ae.Status != http.StatusBadRequest {
		t.Errorf("fingerprint-less receipt: got %v, want 400", err)
	}
}

// TestFullScaleRefused: galoisd serves the small and default scales only.
// A job, a verify or a session at the paper's full scale is a 400 that
// names the served scales, and no input is built for it.
func TestFullScaleRefused(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	wantRefused := func(what string, err error) {
		t.Helper()
		ae, ok := err.(*APIError)
		if !ok || ae.Status != http.StatusBadRequest || !strings.Contains(ae.Msg, "small|default") {
			t.Errorf("%s at full scale: got %v, want a 400 naming small|default", what, err)
		}
	}
	for _, kind := range detKinds() {
		_, err := c.Submit(ctx, Spec{Kind: kind, Scale: "full"})
		wantRefused("job "+kind, err)
	}
	_, err := c.Verify(ctx, Receipt{Spec: Spec{Kind: "dt", Scale: "full"}, Fingerprint: "0000000000000001", Deterministic: true})
	wantRefused("verify", err)
	_, err = c.CreateSession(ctx, session.InitSpec{Kind: "dmr", Scale: "full"})
	wantRefused("session", err)
	if cc := s.InputCacheCounters(); cc.Misses+cc.Stores != 0 {
		t.Errorf("refused requests reached the input cache: %+v", cc)
	}
	if s.sessions.Live() != 0 {
		t.Errorf("a refused session was created")
	}
	// The scales galoisd serves still run.
	submitOK(t, c, Spec{Kind: "pfp", Scale: "small"})
}
