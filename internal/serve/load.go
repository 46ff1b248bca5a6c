package serve

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"galois/internal/rng"
)

// LoadConfig describes one closed-loop load phase: Clients concurrent
// clients, each submitting PerClient jobs drawn round-robin from the
// kinds × variants cell matrix (offset per client, so the server sees a
// mixed workload at every instant).
type LoadConfig struct {
	Kinds    []string
	Variants []string
	// Clients is the closed-loop concurrency (default 1); PerClient is
	// the number of jobs each client submits (default one sweep of the
	// cell matrix).
	Clients   int
	PerClient int
	Scale     string
	Seed      uint64
	Threads   int
	TimeoutMS int64

	// Mix enables the cache-workload knob: instead of every request in a
	// cell carrying Seed, each request draws — from a per-client seeded
	// stream, so the workload is deterministic and detlint-clean — either
	// a hot spec (probability RepeatRate, seed = Seed + a zipf(ZipfS) rank
	// over HotSpecs ranks) or a cold spec with a never-repeated seed. The
	// knob sweeps galoisd's result-cache hit rate: RepeatRate 0 is
	// all-unique traffic (every request a miss), 0.9 is heavy repeat
	// traffic dominated by the zipf head.
	Mix bool
	// RepeatRate is the hot-spec probability in [0,1] (with Mix).
	RepeatRate float64
	// ZipfS is the zipf exponent of the hot-spec popularity distribution
	// (default 1.1); HotSpecs is the number of hot seeds per cell
	// (default 8).
	ZipfS    float64
	HotSpecs int
}

// CellStat aggregates one (kind, variant) cell of a load run.
type CellStat struct {
	Kind    string `json:"kind"`
	Variant string `json:"variant"`
	// Requests counts completed jobs; Fingerprints lists the distinct
	// fingerprints observed for the base seed (a deterministic cell must
	// have exactly one — under a Mix workload every other seed is policed
	// the same way per seed, but only the base seed's fingerprints are
	// reported, keeping the column comparable across runs and workloads).
	Requests     int      `json:"requests"`
	Fingerprints []string `json:"fingerprints"`
	// CacheHits counts responses served from galoisd's result cache
	// (receipt carried cached: true).
	CacheHits int `json:"cache_hits,omitempty"`
	// MedianNS/MaxNS summarize end-to-end request latency.
	MedianNS int64 `json:"median_ns"`
	MaxNS    int64 `json:"max_ns"`
	// Commits/Aborts/Rounds are from the cell's last completed job.
	Commits uint64 `json:"commits"`
	Aborts  uint64 `json:"aborts"`
	Rounds  uint64 `json:"rounds"`
}

// Deterministic reports whether the cell's variant promises a single
// fingerprint.
func (c CellStat) Deterministic() bool { return c.Variant != "g-n" }

// Report is the outcome of one RunLoad phase.
type Report struct {
	Clients    int   `json:"clients"`
	Requests   int   `json:"requests"`
	OK         int   `json:"ok"`
	Rejected   int   `json:"rejected"` // 429 retries (closed loop retried them)
	Errors     int   `json:"errors"`
	DurationNS int64 `json:"duration_ns"`
	// CacheHits totals the per-cell cache-hit counts.
	CacheHits int `json:"cache_hits,omitempty"`
	// Mismatches lists deterministic cells that observed more than one
	// fingerprint — each is a determinism violation.
	Mismatches []string   `json:"mismatches"`
	Cells      []CellStat `json:"cells"`
	// Receipts holds one receipt per cell (the last completed job), ready
	// to be replayed through POST /verify.
	Receipts []Receipt `json:"receipts"`
	// ErrorSamples holds up to a few error strings for diagnosis.
	ErrorSamples []string `json:"error_samples,omitempty"`
}

// cellAcc is one client's private accumulator for one cell; accumulators
// are merged client-by-client after the join, so aggregation order is a
// pure function of (client index, cell index), not goroutine scheduling.
type cellAcc struct {
	lats []int64
	// fpBySeed tracks the distinct fingerprints observed per submitted
	// seed: under a Mix workload different requests in a cell carry
	// different seeds, and the determinism contract is per spec, so
	// fingerprints must be compared within a seed, never across seeds.
	fpBySeed  map[uint64]map[string]bool
	last      *JobResult
	requests  int
	cacheHits int
}

// observe folds one completed request into the accumulator.
func (a *cellAcc) observe(seed uint64, latNS int64, res *JobResult) {
	a.requests++
	a.lats = append(a.lats, latNS)
	if a.fpBySeed == nil {
		a.fpBySeed = make(map[uint64]map[string]bool)
	}
	set := a.fpBySeed[seed]
	if set == nil {
		set = make(map[string]bool)
		a.fpBySeed[seed] = set
	}
	set[res.Receipt.Fingerprint] = true
	if res.Receipt.Cached {
		a.cacheHits++
	}
	a.last = res
}

// mixDraw picks the seed for one Mix-workload request: a zipf-ranked hot
// seed with probability rate, otherwise a cold seed unique to (client
// level, repeat rate, client, request) that no other request will ever
// draw — level and rate are part of the offset because successive
// RunLoad calls in a sweep share one warm server, and a cold seed
// re-drawn at the next sweep point would be a spurious cache hit (hot
// seeds sharing warmth across the sweep is the workload's point; cold
// seeds doing so is an accounting bug). zipfCum is the precomputed
// cumulative distribution over the hot ranks.
func mixDraw(rnd *rng.Rand, rate float64, zipfCum []float64, base uint64, clients, ratePermille, ci, perClient, r int) uint64 {
	if rnd.Float64() < rate {
		return base + uint64(zipfRank(zipfCum, rnd.Float64()))
	}
	return base + coldSeedBase + uint64(clients)*coldLevelStride +
		uint64(ratePermille)*coldRateStride + uint64(ci)*uint64(perClient) + uint64(r)
}

// coldSeedBase offsets cold (never-repeated) seeds far away from the hot
// range so the two can never collide; the strides keep the cold ranges
// of different client levels and repeat rates disjoint.
const (
	coldSeedBase    = 1 << 32
	coldLevelStride = 1 << 26
	coldRateStride  = 1 << 16
)

// zipfCumulative precomputes the cumulative zipf(s) distribution over n
// ranks: weight(i) ∝ 1/(i+1)^s, normalized.
func zipfCumulative(n int, s float64) []float64 {
	if n < 1 {
		n = 1
	}
	cum := make([]float64, n)
	total := 0.0
	for i := range cum {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return cum
}

// zipfRank inverts the cumulative distribution for a uniform draw u in
// [0,1).
func zipfRank(cum []float64, u float64) int {
	for i, c := range cum {
		if u < c {
			return i
		}
	}
	return len(cum) - 1
}

// RunLoad drives one closed-loop load phase against the server behind c
// and aggregates the results. A 429 rejection backs off for the server's
// Retry-After and retries the same job (counted in Rejected); any other
// error is terminal for that request.
func RunLoad(ctx context.Context, c *Client, cfg LoadConfig) (*Report, error) {
	if len(cfg.Kinds) == 0 || len(cfg.Variants) == 0 {
		return nil, fmt.Errorf("serve: load config needs at least one kind and one variant")
	}
	clients := cfg.Clients
	if clients < 1 {
		clients = 1
	}
	type cell struct{ kind, variant string }
	var cells []cell
	for _, k := range cfg.Kinds {
		for _, v := range cfg.Variants {
			cells = append(cells, cell{k, v})
		}
	}
	perClient := cfg.PerClient
	if perClient < 1 {
		perClient = len(cells)
	}

	zipfS := cfg.ZipfS
	if zipfS <= 0 {
		zipfS = 1.1
	}
	hotSpecs := cfg.HotSpecs
	if hotSpecs <= 0 {
		hotSpecs = 8
	}
	// Shared read-only after construction; only Mix clients consult it.
	zipfCum := zipfCumulative(hotSpecs, zipfS)
	ratePermille := int(cfg.RepeatRate*1000 + 0.5)

	accs := make([][]cellAcc, clients) // [client][cell]
	rejects := make([]int, clients)
	errCounts := make([]int, clients)
	errSamples := make([][]string, clients)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(clients)
	for ci := 0; ci < clients; ci++ {
		accs[ci] = make([]cellAcc, len(cells))
		//detlint:ignore goroutineorder load clients: each goroutine writes only its own accumulator row and rows are merged by (client, cell) index after the join
		go func(ci int) {
			defer wg.Done()
			// Partitioned seeded stream: client ci's draws are a pure
			// function of (cfg.Seed, ci), independent of scheduling.
			var rnd *rng.Rand
			if cfg.Mix {
				rnd = rng.New(rng.Mix64(cfg.Seed ^ (uint64(ci)+1)*0x9e3779b97f4a7c15))
			}
			for r := 0; r < perClient; r++ {
				// Stagger clients by their whole stretch so the union of
				// client walks covers the cell matrix as evenly as the
				// request budget allows (offsetting by just ci would leave
				// the tail of the matrix unvisited when clients*perClient
				// is small relative to it).
				idx := (ci*perClient + r) % len(cells)
				cl := cells[idx]
				seed := cfg.Seed
				if cfg.Mix {
					seed = mixDraw(rnd, cfg.RepeatRate, zipfCum, cfg.Seed, clients, ratePermille, ci, perClient, r)
				}
				spec := Spec{Kind: cl.kind, Variant: cl.variant, Scale: cfg.Scale,
					Seed: seed, Threads: cfg.Threads, TimeoutMS: cfg.TimeoutMS}
				acc := &accs[ci][idx]
				for {
					t0 := time.Now()
					res, err := c.Submit(ctx, spec)
					if err != nil {
						if ae, ok := err.(*APIError); ok && ae.IsRetryable() && ctx.Err() == nil {
							rejects[ci]++
							back := ae.RetryAfter
							if back <= 0 {
								back = 50 * time.Millisecond
							}
							time.Sleep(back)
							continue
						}
						errCounts[ci]++
						if len(errSamples[ci]) < 3 {
							errSamples[ci] = append(errSamples[ci], fmt.Sprintf("%s: %v", spec, err))
						}
						break
					}
					acc.observe(seed, time.Since(t0).Nanoseconds(), res)
					break
				}
				if ctx.Err() != nil {
					return
				}
			}
		}(ci)
	}
	wg.Wait()

	rep := &Report{Clients: clients, DurationNS: time.Since(start).Nanoseconds()}
	for ci := 0; ci < clients; ci++ {
		rep.Rejected += rejects[ci]
		rep.Errors += errCounts[ci]
		rep.ErrorSamples = append(rep.ErrorSamples, errSamples[ci]...)
	}
	for idx := range cells {
		cs := CellStat{Kind: cells[idx].kind, Variant: cells[idx].variant}
		var lats []int64
		fpBySeed := make(map[uint64]map[string]bool)
		var last *JobResult
		for ci := 0; ci < clients; ci++ {
			acc := &accs[ci][idx]
			cs.Requests += acc.requests
			cs.CacheHits += acc.cacheHits
			lats = append(lats, acc.lats...)
			for seed, set := range acc.fpBySeed { //detlint:ordered per-seed set union; order-independent, consumed via sorted seed walk below
				dst := fpBySeed[seed]
				if dst == nil {
					dst = make(map[string]bool)
					fpBySeed[seed] = dst
				}
				for fp := range set { //detlint:ordered set union, same argument
					dst[fp] = true
				}
			}
			if acc.last != nil {
				last = acc.last
			}
		}
		// Determinism is a per-spec contract: every seed must have exactly
		// one fingerprint; only the base seed's set is reported as the
		// cell's Fingerprints column.
		var seeds []uint64
		for seed := range fpBySeed { //detlint:ordered collected then sorted immediately below
			seeds = append(seeds, seed)
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		for _, seed := range seeds {
			set := fpBySeed[seed]
			var fps []string
			for fp := range set { //detlint:ordered collected then sorted immediately below
				fps = append(fps, fp)
			}
			sort.Strings(fps)
			if seed == cfg.Seed {
				cs.Fingerprints = fps
			}
			if cs.Deterministic() && len(fps) > 1 {
				rep.Mismatches = append(rep.Mismatches,
					fmt.Sprintf("%s/%s seed %d: %v", cs.Kind, cs.Variant, seed, fps))
			}
		}
		if len(lats) > 0 {
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			cs.MedianNS = lats[len(lats)/2]
			cs.MaxNS = lats[len(lats)-1]
		}
		if last != nil {
			cs.Commits, cs.Aborts, cs.Rounds = last.Commits, last.Aborts, last.Rounds
			rep.Receipts = append(rep.Receipts, last.Receipt)
		}
		rep.Requests += cs.Requests
		rep.OK += cs.Requests
		rep.CacheHits += cs.CacheHits
		rep.Cells = append(rep.Cells, cs)
	}
	return rep, nil
}
