package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"galois/internal/rng"
	"galois/internal/session"
)

// SessionLoadConfig describes one chained-mutation load phase: Sessions
// concurrent session clients, each creating one session (kinds assigned
// round-robin) and driving Batches chained mutation batches against it,
// then auditing the whole chain through the server-side verify replay.
//
// Every batch a client submits is drawn from a per-client partitioned
// seeded stream — a pure function of (Seed, client index) — so the
// workload is deterministic: the lowest-indexed client of each kind
// produces a canonical batch sequence whose final chain hash is
// comparable across runs, machines and thread counts, and is reported as
// the kind's FinalChain.
type SessionLoadConfig struct {
	Kinds   []string // session kinds (default: dmr, sssp registration order)
	Variant string   // g-d (default) or g-dnc
	// Sessions is the number of concurrent session clients (default 1);
	// Batches the chain length each drives (default 3).
	Sessions  int
	Batches   int
	Scale     string
	Seed      uint64
	Threads   int
	TimeoutMS int64
	// Verify disables the final chain audit when false is explicitly
	// wanted; the zero value of SkipVerify keeps audits on by default.
	SkipVerify bool
}

// SessionCellStat aggregates the sessions of one kind.
type SessionCellStat struct {
	Kind     string `json:"kind"`
	Sessions int    `json:"sessions"`
	Batches  int    `json:"batches"`
	// ChainLen is links per session (genesis + batches).
	ChainLen int `json:"chain_len"`
	// FinalChain is the lowest-indexed client's final chain hash — the
	// canonical, run-to-run comparable fingerprint of this cell.
	FinalChain string `json:"final_chain"`
	// MedianNS/MaxNS summarize end-to-end batch latency.
	MedianNS int64  `json:"median_ns"`
	MaxNS    int64  `json:"max_ns"`
	Commits  uint64 `json:"commits"`
	Aborts   uint64 `json:"aborts"`
	Rounds   uint64 `json:"rounds"`
}

// SessionReport is the outcome of one RunSessionLoad phase.
type SessionReport struct {
	Sessions   int   `json:"sessions"`
	Batches    int   `json:"batches"`
	OK         int   `json:"ok"`
	Rejected   int   `json:"rejected"`
	Errors     int   `json:"errors"`
	DurationNS int64 `json:"duration_ns"`
	// VerifyFailures lists sessions whose server-side chain replay did not
	// match — each is a determinism violation.
	VerifyFailures []string          `json:"verify_failures,omitempty"`
	Cells          []SessionCellStat `json:"cells"`
	ErrorSamples   []string          `json:"error_samples,omitempty"`
}

// sessionClientAcc is one client's private accumulator, merged by client
// index after the join.
type sessionClientAcc struct {
	kind       string
	lats       []int64
	finalChain string
	chainLen   int
	last       *BatchResult
	batches    int
	rejected   int
	errs       []string
	verifyFail string
}

// sessionBatches derives client ci's deterministic batch sequence for
// kind: refine batches walk an ascending quality bound (with seeded
// jitter, capped under the 3000-centidegree limit) so each does real
// incremental refinement; reweight batches draw perturbation counts and
// seeds from the same stream.
func sessionBatches(kind string, n int, seed uint64, ci int) []session.BatchSpec {
	rnd := rng.New(rng.Mix64(seed ^ (uint64(ci)+1)*0x9e3779b97f4a7c15))
	out := make([]session.BatchSpec, 0, n)
	for i := 0; i < n; i++ {
		switch kind {
		case "dmr":
			angle := 2000 + ((i+1)*900)/n + int(rnd.Uint64n(100))
			out = append(out, session.BatchSpec{Op: "refine", AngleCentideg: angle})
		default: // sssp
			out = append(out, session.BatchSpec{Op: "reweight",
				Edges: 16 + int(rnd.Uint64n(16)), Seed: rnd.Uint64()})
		}
	}
	return out
}

// RunSessionLoad drives one chained-mutation load phase against the
// server behind c. 429 rejections back off and retry; any other error is
// terminal for that client's remaining batches.
func RunSessionLoad(ctx context.Context, c *Client, cfg SessionLoadConfig) (*SessionReport, error) {
	if len(cfg.Kinds) == 0 {
		cfg.Kinds = []string{"dmr", "sssp"}
	}
	if cfg.Variant == "" {
		cfg.Variant = "g-d"
	}
	sessions := cfg.Sessions
	if sessions < 1 {
		sessions = 1
	}
	batches := cfg.Batches
	if batches < 1 {
		batches = 3
	}

	accs := make([]sessionClientAcc, sessions)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(sessions)
	for ci := 0; ci < sessions; ci++ {
		accs[ci].kind = cfg.Kinds[ci%len(cfg.Kinds)]
		//detlint:ignore goroutineorder session load clients: each goroutine writes only its own accumulator slot and slots are merged by client index after the join
		go func(ci int) {
			defer wg.Done()
			acc := &accs[ci]
			si, err := createSessionRetry(ctx, c, session.InitSpec{
				Kind: acc.kind, Variant: cfg.Variant, Scale: cfg.Scale,
				Seed: cfg.Seed, Threads: cfg.Threads,
			}, acc)
			if err != nil {
				acc.errs = append(acc.errs, fmt.Sprintf("create %s: %v", acc.kind, err))
				return
			}
			prev := si.Head
			for _, b := range sessionBatches(acc.kind, batches, cfg.Seed, ci) {
				b.Prev = prev
				b.Threads = cfg.Threads
				b.TimeoutMS = cfg.TimeoutMS
				for {
					t0 := time.Now()
					br, err := c.SessionBatch(ctx, si.ID, b)
					if err != nil {
						if ae, ok := err.(*APIError); ok && ae.IsRetryable() && ctx.Err() == nil {
							acc.rejected++
							back := ae.RetryAfter
							if back <= 0 {
								back = 50 * time.Millisecond
							}
							time.Sleep(back)
							continue
						}
						acc.errs = append(acc.errs, fmt.Sprintf("%s batch: %v", si.ID, err))
						return
					}
					acc.batches++
					acc.lats = append(acc.lats, time.Since(t0).Nanoseconds())
					acc.last = br
					prev = br.Link.Chain
					acc.finalChain = br.Link.Chain
					acc.chainLen = br.Link.Index + 1
					break
				}
				if ctx.Err() != nil {
					return
				}
			}
			if cfg.SkipVerify {
				return
			}
			// The audit: replay the whole chain server-side against the
			// final receipt this client holds.
			vo, err := c.SessionVerify(ctx, si.ID, acc.finalChain, cfg.Threads)
			if err != nil {
				acc.errs = append(acc.errs, fmt.Sprintf("%s verify: %v", si.ID, err))
				return
			}
			if !vo.Match {
				acc.verifyFail = fmt.Sprintf("%s (%s): replay diverged at link %d: %s",
					si.ID, acc.kind, vo.FailedIndex, vo.Reason)
			}
		}(ci)
	}
	wg.Wait()

	rep := &SessionReport{Sessions: sessions, Batches: batches,
		DurationNS: time.Since(start).Nanoseconds()}
	cellIdx := map[string]int{}
	for _, k := range cfg.Kinds {
		if _, ok := cellIdx[k]; !ok {
			cellIdx[k] = len(rep.Cells)
			rep.Cells = append(rep.Cells, SessionCellStat{Kind: k, Batches: batches})
		}
	}
	latsByCell := make([][]int64, len(rep.Cells))
	for ci := range accs {
		acc := &accs[ci]
		rep.OK += acc.batches
		rep.Rejected += acc.rejected
		rep.Errors += len(acc.errs)
		if len(rep.ErrorSamples) < 5 {
			rep.ErrorSamples = append(rep.ErrorSamples, acc.errs...)
		}
		if acc.verifyFail != "" {
			rep.VerifyFailures = append(rep.VerifyFailures, acc.verifyFail)
		}
		cs := &rep.Cells[cellIdx[acc.kind]]
		cs.Sessions++
		latsByCell[cellIdx[acc.kind]] = append(latsByCell[cellIdx[acc.kind]], acc.lats...)
		// The canonical fingerprint is the lowest-indexed client's final
		// chain; clients are merged in index order, so first wins.
		if cs.FinalChain == "" && acc.finalChain != "" {
			cs.FinalChain = acc.finalChain
			cs.ChainLen = acc.chainLen
		}
		if acc.last != nil {
			cs.Commits, cs.Aborts, cs.Rounds = acc.last.Commits, acc.last.Aborts, acc.last.Rounds
		}
	}
	for i := range rep.Cells {
		lats := latsByCell[i]
		if len(lats) > 0 {
			sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
			rep.Cells[i].MedianNS = lats[len(lats)/2]
			rep.Cells[i].MaxNS = lats[len(lats)-1]
		}
	}
	return rep, nil
}

// createSessionRetry creates a session, backing off on 429 (the
// live-session cap under load behaves like queue pressure).
func createSessionRetry(ctx context.Context, c *Client, is session.InitSpec, acc *sessionClientAcc) (*SessionInfo, error) {
	for {
		si, err := c.CreateSession(ctx, is)
		if err != nil {
			if ae, ok := err.(*APIError); ok && ae.IsRetryable() && ctx.Err() == nil {
				acc.rejected++
				back := ae.RetryAfter
				if back <= 0 {
					back = 50 * time.Millisecond
				}
				time.Sleep(back)
				continue
			}
			return nil, err
		}
		return si, nil
	}
}
