package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// LoadConfig describes one closed-loop load phase: Clients concurrent
// clients, each submitting PerClient jobs drawn round-robin from the
// kinds × variants cell matrix (offset per client, so the server sees a
// mixed workload at every instant). Every request of a cell is the same
// spec, so a deterministic cell has one fingerprint.
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
}

// CellStat aggregates one (kind, variant) cell of a load run.
type CellStat struct {
	Kind    string `json:"kind"`
	Variant string `json:"variant"`
	// Requests counts completed jobs; Fingerprints lists the distinct
	// fingerprints observed (a deterministic cell must have exactly one).
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
	lats      []int64
	fps       map[string]bool // distinct fingerprints observed
	last      *JobResult
	requests  int
	cacheHits int
}

// observe folds one completed request into the accumulator.
func (a *cellAcc) observe(latNS int64, res *JobResult) {
	a.requests++
	a.lats = append(a.lats, latNS)
	if a.fps == nil {
		a.fps = make(map[string]bool)
	}
	a.fps[res.Receipt.Fingerprint] = true
	if res.Receipt.Cached {
		a.cacheHits++
	}
	a.last = res
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
			for r := 0; r < perClient; r++ {
				// Stagger clients by their whole stretch so the union of
				// client walks covers the cell matrix as evenly as the
				// request budget allows (offsetting by just ci would leave
				// the tail of the matrix unvisited when clients*perClient
				// is small relative to it).
				idx := (ci*perClient + r) % len(cells)
				cl := cells[idx]
				spec := Spec{Kind: cl.kind, Variant: cl.variant, Scale: cfg.Scale,
					Seed: cfg.Seed, Threads: cfg.Threads, TimeoutMS: cfg.TimeoutMS}
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
					acc.observe(time.Since(t0).Nanoseconds(), res)
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
		fps := make(map[string]bool)
		var last *JobResult
		for ci := 0; ci < clients; ci++ {
			acc := &accs[ci][idx]
			cs.Requests += acc.requests
			cs.CacheHits += acc.cacheHits
			lats = append(lats, acc.lats...)
			for fp := range acc.fps { //detlint:ordered set union; order-independent
				fps[fp] = true
			}
			if acc.last != nil {
				last = acc.last
			}
		}
		for fp := range fps { //detlint:ordered collected then sorted immediately below
			cs.Fingerprints = append(cs.Fingerprints, fp)
		}
		sort.Strings(cs.Fingerprints)
		if cs.Deterministic() && len(cs.Fingerprints) > 1 {
			rep.Mismatches = append(rep.Mismatches,
				fmt.Sprintf("%s/%s seed %d: %v", cs.Kind, cs.Variant, cfg.Seed, cs.Fingerprints))
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
