package serve

import (
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"galois"
	"galois/internal/inputs"
	"galois/internal/stats"
)

// poolCheckouts is the total number of engine checkouts — every execution
// checks out exactly one engine, so this counts executions.
func poolCheckouts(s *Server) uint64 {
	pc := s.PoolCounters()
	return pc.Hits + pc.Misses + pc.Transients
}

// receiptBytes marshals a receipt with its serving-metadata flag cleared:
// the verifiable identity of a response, which must be byte-identical
// between a cached response and the fresh run that produced it.
func receiptBytes(t *testing.T, r Receipt) string {
	t.Helper()
	r.Cached = false
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal receipt: %v", err)
	}
	return string(data)
}

func TestCacheHitServesWithoutExecution(t *testing.T) {
	s, c := newTestServer(t, Config{CacheBytes: 1 << 20})
	spec := Spec{Kind: "bfs", Variant: "g-d", Scale: "small", Seed: 7}

	fresh := submitOK(t, c, spec)
	if fresh.Receipt.Cached {
		t.Fatal("first submission reported cached")
	}
	execs := poolCheckouts(s)

	hit := submitOK(t, c, spec)
	if !hit.Receipt.Cached {
		t.Fatal("second identical submission not served from cache")
	}
	if got := poolCheckouts(s); got != execs {
		t.Fatalf("cache hit executed an engine: checkouts %d -> %d", execs, got)
	}
	if hit.Receipt.Fingerprint != fresh.Receipt.Fingerprint {
		t.Fatalf("cached fingerprint %s != fresh %s", hit.Receipt.Fingerprint, fresh.Receipt.Fingerprint)
	}
	if receiptBytes(t, hit.Receipt) != receiptBytes(t, fresh.Receipt) {
		t.Fatalf("cached receipt identity differs from fresh:\n%s\n%s",
			receiptBytes(t, hit.Receipt), receiptBytes(t, fresh.Receipt))
	}
	if hit.QueueNS != 0 {
		t.Fatalf("cache hit reported queue time %d", hit.QueueNS)
	}
	if cc := s.CacheCounters(); cc.Hits != 1 || cc.Stores != 1 {
		t.Fatalf("cache counters %+v; want 1 hit, 1 store", cc)
	}
}

func TestCacheKeyNormalization(t *testing.T) {
	s, c := newTestServer(t, Config{CacheBytes: 1 << 20})

	// Semantically identical specs — defaults omitted vs spelled out, and
	// a non-semantic timeout difference — must collide on one key.
	implicit := Spec{Kind: "bfs", Seed: 7}
	explicit := Spec{Kind: "bfs", Variant: "g-d", Scale: "small", Seed: 7, Threads: 1, TimeoutMS: 30_000}
	for _, pair := range [][2]Spec{{implicit, explicit}} {
		var keys [2]string
		for i, raw := range pair {
			spec, kind, herr := s.normalize(raw)
			if herr != nil {
				t.Fatalf("normalize %s: %v", raw, herr)
			}
			key, ok := s.cacheKey(spec, kind)
			if !ok {
				t.Fatalf("det spec %s not cacheable", spec)
			}
			keys[i] = key.String()
		}
		if keys[0] != keys[1] {
			t.Fatalf("semantically identical specs keyed apart: %s vs %s", keys[0], keys[1])
		}
	}

	// End to end: submitting the explicit form after the implicit one is a
	// cache hit with the same fingerprint.
	a := submitOK(t, c, implicit)
	b := submitOK(t, c, explicit)
	if !b.Receipt.Cached || b.Receipt.Fingerprint != a.Receipt.Fingerprint {
		t.Fatalf("normalized forms did not share a cache line: cached=%v fp %s vs %s",
			b.Receipt.Cached, b.Receipt.Fingerprint, a.Receipt.Fingerprint)
	}

	// Never cacheable: g-n (non-deterministic), pfp (Exclusive mutable
	// input), traced requests (per-execution capture).
	uncacheable := []Spec{
		{Kind: "bfs", Variant: "g-n", Seed: 7},
		{Kind: "pfp", Variant: "g-d", Seed: 7},
		{Kind: "bfs", Variant: "g-d", Seed: 7, Trace: true},
	}
	for _, raw := range uncacheable {
		spec, kind, herr := s.normalize(raw)
		if herr != nil {
			t.Fatalf("normalize %s: %v", raw, herr)
		}
		if _, ok := s.cacheKey(spec, kind); ok {
			t.Errorf("spec %s should not be cacheable", spec)
		}
	}
	// And behaviorally: a repeat pfp submission executes again.
	pfpSpec := Spec{Kind: "pfp", Variant: "g-d", Seed: 7}
	submitOK(t, c, pfpSpec)
	before := poolCheckouts(s)
	res := submitOK(t, c, pfpSpec)
	if res.Receipt.Cached || poolCheckouts(s) != before+1 {
		t.Fatal("Exclusive-input spec was served from cache")
	}
}

// gatedKind registers a job kind whose Run blocks until release is closed,
// counting executions — the instrument for overlap and queue tests.
func gatedKind(name string, fp uint64, execs *atomic.Int64, entered chan<- string, release <-chan struct{}) *Kind {
	return &Kind{
		Name:   name,
		Family: "gate-" + name,
		Build:  func(sc inputs.Scale, seed uint64) any { return &struct{}{} },
		Run: func(data any, opts []galois.Option) (uint64, stats.Stats) {
			execs.Add(1)
			select {
			case entered <- name:
			default:
			}
			<-release
			return fp, stats.Stats{Commits: 1}
		},
	}
}

func TestConcurrentIdenticalBurstExecutesOnce(t *testing.T) {
	reg := DefaultRegistry()
	var execs atomic.Int64
	entered := make(chan string, 1)
	release := make(chan struct{})
	reg.Register(gatedKind("slow", 0xabcdef, &execs, entered, release))
	s, _ := newTestServer(t, Config{CacheBytes: 1 << 20, Workers: 4, Registry: reg})

	spec := Spec{Kind: "slow", Variant: "g-d", Seed: 1}
	const n = 16
	results := make([]*JobResult, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			res, err := s.Execute(context.Background(), spec)
			if err != nil {
				t.Errorf("execute %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	<-entered // one execution is in flight and holding the gate
	close(release)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("16-way identical burst executed %d times, want exactly 1", got)
	}
	if got := poolCheckouts(s); got != 1 {
		t.Fatalf("16-way identical burst checked out %d engines, want exactly 1", got)
	}
	want := receiptBytes(t, results[0].Receipt)
	for i, res := range results {
		if res == nil {
			t.Fatalf("result %d missing", i)
		}
		if res.Receipt.Fingerprint != "0000000000abcdef" {
			t.Fatalf("result %d fingerprint %s", i, res.Receipt.Fingerprint)
		}
		if receiptBytes(t, res.Receipt) != want {
			t.Fatalf("receipt %d differs:\n%s\n%s", i, receiptBytes(t, res.Receipt), want)
		}
	}
}

func TestQueuedThenCachedDoesNotDoubleExecute(t *testing.T) {
	reg := DefaultRegistry()
	var execs atomic.Int64
	entered := make(chan string, 1)
	release := make(chan struct{})
	reg.Register(gatedKind("block", 0x111, &execs, entered, release))
	s, _ := newTestServer(t, Config{CacheBytes: 1 << 20, Workers: 1, Registry: reg})

	// Occupy the single worker.
	blockDone := make(chan struct{})
	go func() {
		defer close(blockDone)
		if _, err := s.Execute(context.Background(), Spec{Kind: "block", Variant: "g-d"}); err != nil {
			t.Errorf("block job: %v", err)
		}
	}()
	<-entered

	// Queue a bfs job behind it, then land its result in the cache while
	// it waits (as a verify re-execution would).
	spec, kind, herr := s.normalize(Spec{Kind: "bfs", Variant: "g-d", Seed: 99})
	if herr != nil {
		t.Fatalf("normalize: %v", herr)
	}
	key, ok := s.cacheKey(spec, kind)
	if !ok {
		t.Fatal("bfs spec not cacheable")
	}
	resCh := make(chan *JobResult, 1)
	go func() {
		res, err := s.Execute(context.Background(), spec)
		if err != nil {
			t.Errorf("queued job: %v", err)
		}
		resCh <- res
	}()
	for len(s.exec.queue) == 0 { // wait until the job is admitted behind the gate
		runtime.Gosched()
	}
	injected := &cachedResult{Receipt: Receipt{Spec: spec, Fingerprint: "00000000feedface", Deterministic: true}}
	s.cache.Put(key, injected, injected.size())

	checkoutsBefore := poolCheckouts(s)
	close(release)
	<-blockDone
	res := <-resCh

	if res == nil {
		t.Fatal("queued job returned nothing")
	}
	if !res.Receipt.Cached || res.Receipt.Fingerprint != "00000000feedface" {
		t.Fatalf("queued-then-cached job did not serve the resident entry: cached=%v fp=%s",
			res.Receipt.Cached, res.Receipt.Fingerprint)
	}
	if got := poolCheckouts(s); got != checkoutsBefore {
		t.Fatalf("queued-then-cached job executed anyway: checkouts %d -> %d", checkoutsBefore, got)
	}
	if v := s.exec.met.Counter("serve.cache.hit_queued").Value(); v != 1 {
		t.Fatalf("serve.cache.hit_queued = %d, want 1", v)
	}
}

func TestVerifyBypassesCache(t *testing.T) {
	s, c := newTestServer(t, Config{CacheBytes: 1 << 20})
	spec := Spec{Kind: "bfs", Variant: "g-d", Scale: "small", Seed: 8}
	nspec, kind, _ := s.normalize(spec)
	key, _ := s.cacheKey(nspec, kind)

	// Plant a forged entry, then verify a receipt carrying the forged
	// fingerprint. If /verify consulted the cache it would "confirm" the
	// forgery; a real re-execution exposes it.
	forged := &cachedResult{Receipt: Receipt{Spec: nspec, Fingerprint: "00000000deadbeef", Deterministic: true}}
	s.cache.Put(key, forged, forged.size())
	vr, err := c.Verify(context.Background(), forged.Receipt)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if vr.Match {
		t.Fatal("verification of a forged receipt matched — /verify read the cache")
	}
}

func TestCachedReceiptVerifies(t *testing.T) {
	_, c := newTestServer(t, Config{CacheBytes: 1 << 20})
	spec := Spec{Kind: "bfs", Variant: "g-d", Scale: "small", Seed: 9}
	submitOK(t, c, spec)
	hit := submitOK(t, c, spec)
	if !hit.Receipt.Cached {
		t.Fatal("second submission not cached")
	}
	vr, err := c.Verify(context.Background(), hit.Receipt)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !vr.Match {
		t.Fatalf("cached receipt failed verification: expect %s got %s", vr.Expect, vr.Got)
	}
}

func TestCachedFlagExcludedFromReceiptIdentity(t *testing.T) {
	r := Receipt{Spec: Spec{Kind: "bfs", Variant: "g-d", Scale: "small", Threads: 1}, Fingerprint: "aa", Deterministic: true}
	plain, _ := json.Marshal(r)
	if strings.Contains(string(plain), "cached") {
		t.Fatalf("uncached receipt serializes a cached field: %s", plain)
	}
	c := r
	c.Cached = true
	if c.Fingerprint != r.Fingerprint || c.Spec != r.Spec {
		t.Fatal("setting Cached changed receipt identity")
	}
}

func TestCacheMetricsExposed(t *testing.T) {
	_, c := newTestServer(t, Config{CacheBytes: 1 << 20})
	spec := Spec{Kind: "bfs", Variant: "g-d", Scale: "small", Seed: 11}
	submitOK(t, c, spec)
	submitOK(t, c, spec)
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{
		// misses is 2 for one cold submit: the handler-side Get plus the
		// flight leader's queued recheck.
		"serve.rescache.hits 1", "serve.rescache.misses 2", "serve.rescache.stores 1",
		"serve.rescache.entries 1", "serve.rescache.bytes_budget 1048576",
		"serve.cache.hit 1", "serve.cache.miss 1",
	} {
		if !containsLinePrefix(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
