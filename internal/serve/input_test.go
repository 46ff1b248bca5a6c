package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"galois"
	"galois/internal/apps/pfp"
	"galois/internal/graph"
	"galois/internal/inputs"
	"galois/internal/stats"
)

// blobKind is a job kind whose input is a byte slice of blobBytes(seed)
// bytes, charged by capacity, and whose result is a function of the seed.
// builds counts Build calls.
func blobKind(name string, blobBytes func(seed uint64) int, builds *atomic.Int64) *Kind {
	return &Kind{
		Name: name,
		Build: func(_ inputs.Scale, seed uint64) any {
			builds.Add(1)
			b := make([]byte, blobBytes(seed))
			if len(b) > 0 {
				b[0] = byte(seed)
			}
			return b
		},
		Size: func(data any) int64 { return int64(cap(data.([]byte))) },
		Run: func(data any, _ []galois.Option) (uint64, stats.Stats) {
			return uint64(len(data.([]byte))), stats.Stats{Commits: 1}
		},
	}
}

// TestInputCacheLRUAndAccounting: entries are charged Size + the fixed
// overhead, the least recently used cell goes first, and a get refreshes.
func TestInputCacheLRUAndAccounting(t *testing.T) {
	var builds atomic.Int64
	kind := blobKind("blob", func(uint64) int { return 1000 }, &builds)
	kind.Family = kind.Name
	const entry = 1000 + cacheEntryOverhead
	c := newInputCache(3 * entry)

	get := func(seed uint64) *cachedInput {
		t.Helper()
		ent, err := c.get(kind, "small", seed)
		if err != nil {
			t.Fatalf("get seed %d: %v", seed, err)
		}
		return ent
	}
	first := get(1)
	get(2)
	get(3)
	if cc := c.cache.Counters(); cc.Entries != 3 || cc.Bytes != 3*entry || cc.Evictions != 0 {
		t.Fatalf("after three builds: %+v, want 3 entries of %d bytes", cc, entry)
	}
	if again := get(1); again != first || builds.Load() != 3 {
		t.Fatalf("second get of a resident cell rebuilt it (builds %d)", builds.Load())
	}
	get(4) // evicts 2, the least recently used: 1 was just touched
	if cc := c.cache.Counters(); cc.Entries != 3 || cc.Bytes != 3*entry || cc.Evictions != 1 {
		t.Fatalf("after the fourth build: %+v, want 3 entries, 1 eviction", cc)
	}
	get(1)
	get(3)
	get(4)
	if builds.Load() != 4 {
		t.Fatalf("cells 1, 3, 4 should be resident; builds %d, want 4", builds.Load())
	}
	get(2)
	if builds.Load() != 5 {
		t.Fatalf("cell 2 should have been evicted; builds %d, want 5", builds.Load())
	}
	// Families separate cells, scale and seed too.
	other := *kind
	other.Family = "other"
	if ent, _ := c.get(&other, "small", 2); ent == get(2) {
		t.Fatal("two families share one cell")
	}
}

// TestInputCacheOverBudgetInput: an input larger than the whole budget is
// built, runs its job and is not resident; every request rebuilds it.
func TestInputCacheOverBudgetInput(t *testing.T) {
	reg := DefaultRegistry()
	var builds atomic.Int64
	reg.Register(blobKind("huge", func(uint64) int { return 2 << 20 }, &builds))
	s, c := newTestServer(t, Config{CacheBytes: 1 << 20, Registry: reg})

	for i := 1; i <= 2; i++ {
		// g-n: never served from the result cache, so each submit needs the input.
		res := submitOK(t, c, Spec{Kind: "huge", Variant: "g-n", Seed: 9})
		if res.Receipt.Fingerprint != fmt.Sprintf("%016x", 2<<20) {
			t.Fatalf("submit %d: fingerprint %s", i, res.Receipt.Fingerprint)
		}
		if cc := s.InputCacheCounters(); cc.Entries != 0 || cc.Bytes != 0 || cc.Rejects != uint64(i) {
			t.Fatalf("submit %d: over-budget input resident or not counted: %+v", i, cc)
		}
	}
	if builds.Load() != 2 {
		t.Fatalf("builds %d, want one per request", builds.Load())
	}
}

// TestInputCacheConcurrentFirstRequestsBuildOnce: concurrent first gets of
// one key share one build and one cell.
func TestInputCacheConcurrentFirstRequestsBuildOnce(t *testing.T) {
	var builds atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	kind := blobKind("gated", func(uint64) int { return 64 }, &builds)
	kind.Family = kind.Name
	build := kind.Build
	kind.Build = func(sc inputs.Scale, seed uint64) any {
		close(started) // a second build panics here
		<-release
		return build(sc, seed)
	}
	c := newInputCache(1 << 20)

	const n = 8
	cells := make([]*cachedInput, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			ent, err := c.get(kind, "small", 7)
			if err != nil {
				t.Errorf("get %d: %v", i, err)
			}
			cells[i] = ent
		}(i)
	}
	<-started
	close(release)
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("%d concurrent first requests built the input %d times", n, builds.Load())
	}
	for i, ent := range cells {
		if ent == nil || ent != cells[0] {
			t.Fatalf("request %d got a different cell", i)
		}
	}
}

// TestExclusiveInputEvictedMidRun: an Exclusive cell evicted while a job
// holds its run mutex finishes on its own copy; the next request for the
// key builds a fresh cell, runs without waiting for the first, and — Reset
// making the copies indistinguishable — produces the same receipt.
func TestExclusiveInputEvictedMidRun(t *testing.T) {
	reg := DefaultRegistry()
	var builds atomic.Int64
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	kind := blobKind("excl", func(uint64) int { return 1000 }, &builds)
	kind.Exclusive = true
	kind.Reset = func(data any) { data.([]byte)[1] = 0 }
	kind.Run = func(data any, _ []galois.Option) (uint64, stats.Stats) {
		b := data.([]byte)
		if b[1] != 0 {
			panic("exclusive input shared by two runs, or not reset")
		}
		b[1] = 1
		entered <- struct{}{}
		<-release
		return uint64(b[0]) + 1000, stats.Stats{Commits: 1}
	}
	reg.Register(kind)
	// Room for two cells: the third build evicts the first.
	s, _ := newTestServer(t, Config{CacheBytes: 2 * (1000 + cacheEntryOverhead), Workers: 4, Registry: reg})

	spec := func(seed uint64) Spec { return Spec{Kind: "excl", Variant: "g-d", Seed: seed} }
	results := make(chan *JobResult, 4)
	submit := func(seed uint64) {
		go func() {
			res, err := s.Execute(context.Background(), spec(seed))
			if err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
			results <- res
		}()
		<-entered
	}
	submit(1) // holds cell 1's run mutex until release
	submit(2)
	submit(3) // evicts cell 1 under its running job
	if cc := s.InputCacheCounters(); cc.Evictions != 1 || cc.Entries != 2 {
		t.Fatalf("cell 1 not evicted mid-run: %+v", cc)
	}
	submit(1) // a fresh cell 1: enters Run although the first job still holds the old one
	if builds.Load() != 4 {
		t.Fatalf("builds %d, want 4 (the evicted cell rebuilt)", builds.Load())
	}
	close(release)
	var fps []string
	for i := 0; i < 4; i++ {
		if res := <-results; res != nil && res.Receipt.Spec.Seed == 1 {
			fps = append(fps, receiptBytes(t, res.Receipt))
		}
	}
	if len(fps) != 2 || fps[0] != fps[1] {
		t.Fatalf("the job on the evicted copy and the job on the fresh copy disagree: %q", fps)
	}
}

// TestVerifyAfterInputEviction: POST /verify of a receipt whose input has
// been evicted rebuilds the input and matches.
func TestVerifyAfterInputEviction(t *testing.T) {
	// 1 MiB holds one small k-out graph (~0.96 MB), not two.
	s, c := newTestServer(t, Config{CacheBytes: 1 << 20, Workers: 2})
	spec := Spec{Kind: "bfs", Variant: "g-d", Scale: "small", Seed: 21, Threads: 2}
	res := submitOK(t, c, spec)
	submitOK(t, c, Spec{Kind: "mis", Variant: "g-d", Scale: "small", Seed: 22, Threads: 2})
	if cc := s.InputCacheCounters(); cc.Evictions != 1 || cc.Entries != 1 {
		t.Fatalf("seed 21's graph still resident, the test evicted nothing: %+v", cc)
	}
	before := s.InputCacheCounters().Stores
	vr, err := c.Verify(context.Background(), res.Receipt)
	if err != nil {
		t.Fatal(err)
	}
	if !vr.Match {
		t.Fatalf("receipt did not verify after its input was evicted: %+v", vr)
	}
	if got := s.InputCacheCounters().Stores; got != before+1 {
		t.Fatalf("verify did not rebuild the input: stores %d -> %d", before, got)
	}
}

// TestInputCacheMetricsExposed: /metrics carries the input cache's counters
// and the pool's scrub count.
func TestInputCacheMetricsExposed(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	submitOK(t, c, Spec{Kind: "bfs", Variant: "g-d", Scale: "small", Seed: 11})
	submitOK(t, c, Spec{Kind: "mis", Variant: "g-d", Scale: "small", Seed: 11}) // same family: a hit
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"serve.inputcache.hits 1", "serve.inputcache.misses 2", "serve.inputcache.stores 1",
		"serve.inputcache.evictions 0", "serve.inputcache.rejects 0", "serve.inputcache.entries 1",
		"serve.inputcache.bytes_resident ", fmt.Sprintf("serve.inputcache.bytes_budget %d", defaultInputCacheBytes),
		"serve.pool.scrubs 2",
	} {
		if !containsLinePrefix(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestInputCacheAndScrubNeverReachReceipts extends the non-perturbation
// invariant to this file's counters: a job's receipt and canonical event
// sequence are the same whether its input was built for it, found resident,
// or too large to keep, and whether its engine was fresh or scrubbed — and
// nothing a response carries mentions either mechanism.
func TestInputCacheAndScrubNeverReachReceipts(t *testing.T) {
	run := func(cfg Config, reps int) (receipts, lines []string) {
		s, c := newTestServer(t, cfg)
		for i := 0; i < reps; i++ {
			res := submitOK(t, c, Spec{Kind: "dmr", Variant: "g-d", Scale: "small", Seed: 5, Threads: 2, Trace: true})
			receipts = append(receipts, receiptBytes(t, res.Receipt))
			lines = append(lines, scheduleLines(t, res.Trace))
			body, _ := json.Marshal(res)
			if low := strings.ToLower(string(body)); strings.Contains(low, "inputcache") || strings.Contains(low, "scrub") {
				t.Errorf("a job response mentions the input cache or the scrub: %s", low[:200])
			}
		}
		if pc := s.PoolCounters(); pc.Scrubs != uint64(reps) {
			t.Errorf("pool scrubs %d after %d jobs", pc.Scrubs, reps)
		}
		return receipts, lines
	}
	// Built, then resident on a scrubbed engine, twice.
	receipts, lines := run(Config{Workers: 1}, 3)
	// A one-byte budget: never resident, rebuilt for every job.
	r2, l2 := run(Config{Workers: 1, CacheBytes: 1}, 1)
	receipts, lines = append(receipts, r2...), append(lines, l2...)
	for i := range receipts {
		if receipts[i] != receipts[0] {
			t.Errorf("receipt %d differs:\n%s\n%s", i, receipts[i], receipts[0])
		}
		if lines[i] != lines[0] {
			t.Errorf("canonical event sequence %d differs from the first", i)
		}
	}
}

// scheduleLines reduces a job's Chrome trace to its schedule-bearing content:
// every event's name and args in order, without timestamps, durations and the
// phase slices (whose args are durations).
func scheduleLines(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("decoding trace: %v", err)
	}
	var sb strings.Builder
	for _, ev := range doc.TraceEvents {
		switch ev.Name {
		case "inspect", "execute", "coordinate":
			continue
		}
		args, _ := json.Marshal(ev.Args) // map keys are written sorted
		fmt.Fprintf(&sb, "%s %s\n", ev.Name, args)
	}
	if sb.Len() == 0 {
		t.Fatal("trace carries no events")
	}
	return sb.String()
}

// TestServerMemoryIsBounded: what a served job leaves behind is bounded.
// One server, never-repeated seeds over every kind; the live heap after a
// collection is the same at the halfway point as at the end, within a slack
// for what still grows toward a ceiling — the engines' per-task children
// buffers reach their high-water capacity slowly, 2.5–4 MiB over the second
// half. With an unbounded input map the second half adds 24 MiB (2.7 MB of
// inputs and a refined mesh or two per sweep); with engines that pin their
// last mesh the level is higher but as flat, which is
// core.TestScrubReleasesRunData's to catch.
func TestServerMemoryIsBounded(t *testing.T) {
	const (
		sweeps = 12
		budget = 8 << 20 // full after three sweeps
		slack  = 8 << 20
	)
	s, _ := newTestServer(t, Config{Workers: 2, CacheBytes: budget})
	kinds := detKinds()
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	sweep := func(i int) {
		var wg sync.WaitGroup
		for k, kind := range kinds {
			wg.Add(1)
			go func(kind string, seed uint64) {
				defer wg.Done()
				spec := Spec{Kind: kind, Variant: "g-d", Scale: "small", Seed: seed, Threads: 2}
				if _, err := s.Execute(context.Background(), spec); err != nil {
					t.Errorf("%s seed %d: %v", kind, seed, err)
				}
			}(kind, uint64(1000+i*len(kinds)+k))
		}
		wg.Wait()
	}
	for i := 0; i < sweeps/2; i++ {
		sweep(i)
	}
	half := live()
	for i := sweeps / 2; i < sweeps; i++ {
		sweep(i)
	}
	end := live()
	cc := s.InputCacheCounters()
	t.Logf("live heap: %.1f MiB at %d jobs, %.1f MiB at %d; input cache %+v",
		float64(half)/(1<<20), sweeps/2*len(kinds), float64(end)/(1<<20), sweeps*len(kinds), cc)
	if end > half+slack {
		t.Errorf("live heap grew from %.1f to %.1f MiB over the second half of %d never-repeated jobs (slack %d MiB)",
			float64(half)/(1<<20), float64(end)/(1<<20), sweeps*len(kinds), slack>>20)
	}
	if cc.Bytes > budget || cc.Evictions == 0 {
		t.Errorf("input cache over budget or never full: %+v", cc)
	}
}

// FuzzInputSize: for generated inputs of every family, Kind.Size is at least
// the bytes of the arrays the input's accessors expose — a cell is never
// charged less than it pins.
func FuzzInputSize(f *testing.F) {
	f.Add(uint64(42), uint16(200), uint8(5))
	f.Add(uint64(0), uint16(2), uint8(1))
	f.Add(uint64(1<<63), uint16(1500), uint8(9))
	reg := DefaultRegistry()
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, degree uint8) {
		nodes, deg := int(n)%2000+2, int(degree)%8+1
		sc := inputs.SmallScale()
		sc.BFSNodes, sc.BFSDegree = nodes, deg
		sc.SSSPNodes, sc.SSSPDegree = nodes, deg
		sc.MSFNodes, sc.MSFDegree = nodes, deg
		sc.PFPNodes, sc.PFPDegree = nodes, deg
		sc.DTPoints, sc.DMRPoints = nodes, nodes
		csrBytes := func(g *graph.CSR) int64 { return int64(g.N()+1)*8 + int64(g.M())*4 }
		for _, name := range reg.Names() {
			kind := reg.Lookup(name)
			data := kind.Build(sc, seed)
			var floor int64
			switch d := data.(type) {
			case *graph.CSR:
				floor = csrBytes(d)
			case *ssspData:
				floor = csrBytes(d.g.CSR) + int64(len(d.g.W))*4
			case *msfInput:
				floor = int64(len(d.edges)) * 16
			case *pfp.Network:
				_, arcs := d.Arcs(d.N - 1)
				floor = int64(d.N+1)*8 + arcs*(4+3*8) + int64(d.N)*16
			case *dtInput:
				floor = int64(len(d.pts)) * 16
			case *dmrInput:
				floor = 3 * 8
			default:
				t.Fatalf("%s: unexpected input type %T", name, data)
			}
			if got := kind.Size(data); got < floor {
				t.Errorf("%s (n=%d degree=%d seed=%d): Size %d below the %d bytes its arrays hold", name, nodes, deg, seed, got, floor)
			}
		}
	})
}
