package serve

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"galois/internal/session"
)

func apiStatus(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		t.Fatal("want an API error, got success")
	}
	ae, ok := err.(*APIError)
	if !ok {
		t.Fatalf("want *APIError, got %T: %v", err, err)
	}
	return ae.Status
}

// TestSessionLifecycleHTTP walks the whole session API end to end: create,
// chained batches, verify (with and without the final receipt), GET, close,
// and the post-close 410.
func TestSessionLifecycleHTTP(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2, QueueDepth: 32})
	ctx := context.Background()

	si, err := c.CreateSession(ctx, session.InitSpec{Kind: "sssp", Scale: "small", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if si.Init.Variant != "g-d" || len(si.Links) != 1 || si.Head != si.Links[0].Chain {
		t.Fatalf("creation response malformed: %+v", si)
	}

	prev := si.Head
	var last *BatchResult
	for i := 0; i < 3; i++ {
		br, err := c.SessionBatch(ctx, si.ID, session.BatchSpec{
			Op: "reweight", Edges: 8 + i, Seed: uint64(100 + i), Prev: prev})
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if br.Link.Index != i+1 || br.Link.Prev != prev {
			t.Fatalf("batch %d link mischained: %+v", i, br.Link)
		}
		prev = br.Link.Chain
		last = br
	}

	// Audit from the recorded chain alone, then from the final receipt.
	for _, final := range []string{"", last.Link.Chain} {
		vo, err := c.SessionVerify(ctx, si.ID, final, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !vo.Match || vo.Links != 4 || vo.FinalChain != last.Link.Chain {
			t.Fatalf("verify(final=%q): %+v", final, vo)
		}
	}
	// A forged final receipt is flagged at the last link.
	vo, err := c.SessionVerify(ctx, si.ID, si.Head, 0)
	if err != nil {
		t.Fatal(err)
	}
	if vo.Match || vo.FailedIndex != 3 {
		t.Fatalf("forged final receipt accepted: %+v", vo)
	}

	got, err := c.Session(ctx, si.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Links) != 4 || got.Evicted {
		t.Fatalf("GET after 3 batches: %+v", got)
	}

	closed, err := c.CloseSession(ctx, si.ID)
	if err != nil {
		t.Fatal(err)
	}
	tomb := closed.Links[len(closed.Links)-1]
	if !closed.Evicted || tomb.Batch.Op != "tombstone" || tomb.Batch.Reason != "closed" {
		t.Fatalf("close did not tombstone: %+v", closed)
	}
	// The sealed chain still verifies; new batches are Gone.
	if vo, err := c.SessionVerify(ctx, si.ID, tomb.Chain, 0); err != nil || !vo.Match {
		t.Fatalf("verify after close: %+v, %v", vo, err)
	}
	_, err = c.SessionBatch(ctx, si.ID, session.BatchSpec{Op: "reweight", Edges: 8, Seed: 1})
	if got := apiStatus(t, err); got != http.StatusGone {
		t.Errorf("batch after close: status %d, want 410", got)
	}
}

// TestSessionChainThreadIndependence drives the identical dmr batch
// sequence through sessions at per-batch thread counts 1, 2 and 4, at
// GOMAXPROCS 2 and 8 — every run must produce the identical chain, and a
// receipt minted at one thread count must verify at another. This is the
// acceptance property: the chain is a pure function of (init, batches).
func TestSessionChainThreadIndependence(t *testing.T) {
	angles := []int{2400, 2600, 2800}
	type run struct {
		label string
		chain string
	}
	var runs []run
	for _, procs := range []int{2, 8} {
		old := runtime.GOMAXPROCS(procs)
		_, c := newTestServer(t, Config{Workers: 2, QueueDepth: 32})
		ctx := context.Background()
		for _, threads := range []int{1, 2, 4} {
			si, err := c.CreateSession(ctx, session.InitSpec{Kind: "dmr", Scale: "small", Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			var head string
			for _, a := range angles {
				br, err := c.SessionBatch(ctx, si.ID, session.BatchSpec{
					Op: "refine", AngleCentideg: a, Threads: threads})
				if err != nil {
					t.Fatal(err)
				}
				head = br.Link.Chain
			}
			runs = append(runs, run{fmt.Sprintf("procs=%d threads=%d", procs, threads), head})
			// Cross-check: replay at a different thread count against this
			// receipt.
			vo, err := c.SessionVerify(ctx, si.ID, head, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !vo.Match {
				t.Errorf("%s: verify at threads=3 diverged: %+v", runs[len(runs)-1].label, vo)
			}
		}
		runtime.GOMAXPROCS(old)
	}
	for _, r := range runs[1:] {
		if r.chain != runs[0].chain {
			t.Errorf("chain differs across schedules: %s=%s, %s=%s",
				runs[0].label, runs[0].chain, r.label, r.chain)
		}
	}
}

// TestSessionPrevSemanticsHTTP: idempotent retry returns the recorded link
// with replayed set; a conflicting Prev is a 409.
func TestSessionPrevSemanticsHTTP(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2, QueueDepth: 32})
	ctx := context.Background()
	si, err := c.CreateSession(ctx, session.InitSpec{Kind: "sssp", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b1 := session.BatchSpec{Op: "reweight", Edges: 8, Seed: 7, Prev: si.Head}
	l1, err := c.SessionBatch(ctx, si.ID, b1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionBatch(ctx, si.ID, session.BatchSpec{
		Op: "reweight", Edges: 9, Seed: 8, Prev: l1.Link.Chain}); err != nil {
		t.Fatal(err)
	}

	retry, err := c.SessionBatch(ctx, si.ID, b1) // lost-response retry
	if err != nil {
		t.Fatal(err)
	}
	if !retry.Link.Replayed || retry.Link.Chain != l1.Link.Chain {
		t.Errorf("retry: replayed=%v chain-match=%v", retry.Link.Replayed, retry.Link.Chain == l1.Link.Chain)
	}

	_, err = c.SessionBatch(ctx, si.ID, session.BatchSpec{
		Op: "reweight", Edges: 30, Seed: 9, Prev: si.Head})
	if got := apiStatus(t, err); got != http.StatusConflict {
		t.Errorf("conflicting prev: status %d, want 409", got)
	}
}

// TestSessionIdleEvictionHTTP: a short -session-idle evicts between
// requests (the lazy sweep on the next handler call is enough — no janitor
// tick required), seals a tombstone, keeps the chain verifiable, and
// answers further batches with 410.
func TestSessionIdleEvictionHTTP(t *testing.T) {
	// The idle window must comfortably exceed the gap between the create
	// and batch requests, which -race stretches well past anything a bare
	// run sees — hence seconds, not tens of milliseconds.
	const idle = 2 * time.Second
	_, c := newTestServer(t, Config{Workers: 1, QueueDepth: 8, SessionIdle: idle})
	ctx := context.Background()
	si, err := c.CreateSession(ctx, session.InitSpec{Kind: "sssp", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionBatch(ctx, si.ID, session.BatchSpec{Op: "reweight", Edges: 8, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(idle + idle/2)

	got, err := c.Session(ctx, si.ID) // GET triggers the sweep and shows the result
	if err != nil {
		t.Fatal(err)
	}
	tomb := got.Links[len(got.Links)-1]
	if !got.Evicted || tomb.Batch.Op != "tombstone" || tomb.Batch.Reason != "idle" {
		t.Fatalf("idle eviction missing: %+v", got)
	}
	if vo, err := c.SessionVerify(ctx, si.ID, tomb.Chain, 0); err != nil || !vo.Match {
		t.Fatalf("evicted chain fails verify: %+v, %v", vo, err)
	}
	_, err = c.SessionBatch(ctx, si.ID, session.BatchSpec{Op: "reweight", Edges: 8, Seed: 2})
	if got := apiStatus(t, err); got != http.StatusGone {
		t.Errorf("batch after idle eviction: status %d, want 410", got)
	}
}

// TestSessionErrorsHTTP pins the remaining status mappings: unknown id,
// g-n creation, session cap, bad batch op, oversized threads.
func TestSessionErrorsHTTP(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueDepth: 8, MaxSessions: 1, MaxThreads: 4})
	ctx := context.Background()

	if got := apiStatus(t, errOf(c.Session(ctx, "s999"))); got != http.StatusNotFound {
		t.Errorf("GET unknown: %d, want 404", got)
	}
	_, err := c.CreateSession(ctx, session.InitSpec{Kind: "sssp", Variant: "g-n", Seed: 1})
	if got := apiStatus(t, err); got != http.StatusBadRequest {
		t.Errorf("g-n create: %d, want 400", got)
	}

	si, err := c.CreateSession(ctx, session.InitSpec{Kind: "sssp", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.CreateSession(ctx, session.InitSpec{Kind: "sssp", Seed: 2})
	if got := apiStatus(t, err); got != http.StatusTooManyRequests {
		t.Errorf("create over cap: %d, want 429", got)
	}

	_, err = c.SessionBatch(ctx, si.ID, session.BatchSpec{Op: "refine", AngleCentideg: 2500})
	if got := apiStatus(t, err); got != http.StatusBadRequest {
		t.Errorf("wrong op for kind: %d, want 400", got)
	}
	_, err = c.SessionBatch(ctx, si.ID, session.BatchSpec{Op: "reweight", Edges: 8, Seed: 1, Threads: 64})
	if got := apiStatus(t, err); got != http.StatusBadRequest {
		t.Errorf("oversized threads: %d, want 400", got)
	}
}

func errOf[T any](_ T, err error) error { return err }

// TestSessionConcurrentBatches: concurrent submissions against one session
// serialize on the session lock; every submission either extends the chain
// or conflicts cleanly (409) — and the final chain still verifies.
func TestSessionConcurrentBatches(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	ctx := context.Background()
	si, err := c.CreateSession(ctx, session.InitSpec{Kind: "sssp", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.SessionBatch(ctx, si.ID, session.BatchSpec{
				Op: "reweight", Edges: 4 + i, Seed: uint64(i)})
		}(i)
	}
	wg.Wait()
	ok := 0
	for i, err := range errs {
		if err == nil {
			ok++
		} else if ae, isAPI := err.(*APIError); !isAPI || ae.Status != http.StatusTooManyRequests {
			t.Errorf("batch %d: %v", i, err)
		}
	}
	if ok == 0 {
		t.Fatal("no concurrent batch succeeded")
	}
	got, err := c.Session(ctx, si.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Links) != ok+1 {
		t.Errorf("chain has %d links after %d successful batches", len(got.Links), ok)
	}
	if vo, err := c.SessionVerify(ctx, si.ID, got.Head, 0); err != nil || !vo.Match {
		t.Fatalf("verify after concurrent batches: %+v, %v", vo, err)
	}
}

// TestConcurrentSessionChains drives four sessions at once — two dmr, two
// sssp, each chaining the same three batches — and audits each chain from
// its final receipt. Sessions of one kind must end on the same chain:
// other sessions running beside it are as invisible to a chain as the
// thread count is.
func TestConcurrentSessionChains(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	ctx := context.Background()
	batches := map[string][]session.BatchSpec{
		"dmr": {{Op: "refine", AngleCentideg: 2400}, {Op: "refine", AngleCentideg: 2600},
			{Op: "refine", AngleCentideg: 2800}},
		"sssp": {{Op: "reweight", Edges: 8, Seed: 1}, {Op: "reweight", Edges: 9, Seed: 2},
			{Op: "reweight", Edges: 10, Seed: 3}},
	}
	kinds := []string{"dmr", "sssp", "dmr", "sssp"}
	finals := make([]string, len(kinds))
	errs := make([]error, len(kinds))
	var wg sync.WaitGroup
	for i, kind := range kinds {
		wg.Add(1)
		go func(i int, kind string) {
			defer wg.Done()
			si, err := c.CreateSession(ctx, session.InitSpec{Kind: kind, Scale: "small", Seed: 42})
			if err != nil {
				errs[i] = err
				return
			}
			head := si.Head
			for _, b := range batches[kind] {
				b.Prev = head
				br, err := c.SessionBatch(ctx, si.ID, b)
				if err != nil {
					errs[i] = err
					return
				}
				head = br.Link.Chain
			}
			vo, err := c.SessionVerify(ctx, si.ID, head, 0)
			if err == nil && !vo.Match {
				err = fmt.Errorf("chain audit failed: %+v", vo)
			}
			finals[i], errs[i] = head, err
		}(i, kind)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d (%s): %v", i, kinds[i], err)
		}
	}
	for i := 2; i < len(kinds); i++ {
		if finals[i] != finals[i-2] {
			t.Errorf("%s: concurrent sessions ended on different chains %s and %s",
				kinds[i], finals[i-2], finals[i])
		}
	}
}
