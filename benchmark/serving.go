package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"galois/internal/rescache"
	"galois/internal/rng"
	"galois/internal/router"
	"galois/internal/serve"
	"galois/internal/session"
)

// cluster is the serving stack under test, all in this process on loopback
// TCP listeners: one galoisrouter in front of two galoisd, each configured
// as its command configures it by default.
type cluster struct {
	servers  []*serve.Server
	rt       *router.Router
	https    []*http.Server
	serving  sync.WaitGroup
	backends []string
	front    string
}

const clusterBackends = 2

// listen serves h on an ephemeral loopback port and returns its base URL.
func (c *cluster) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	c.https = append(c.https, hs)
	c.serving.Add(1)
	//detlint:ignore goroutineorder HTTP acceptor: joined by cluster.stop through serving.Wait; job results are computed behind it and do not depend on accept order
	go func() {
		defer c.serving.Done()
		_ = hs.Serve(ln) // always http.ErrServerClosed, after stop
	}()
	return "http://" + ln.Addr().String(), nil
}

func startCluster() (*cluster, error) {
	c := &cluster{}
	var specs []router.BackendSpec
	for i := 0; i < clusterBackends; i++ {
		// cmd/galoisd's flag defaults.
		srv := serve.NewServer(serve.Config{
			QueueDepth:     64,
			MaxThreads:     8,
			DefaultTimeout: 60 * time.Second,
			CacheBytes:     64 << 20,
			SessionIdle:    10 * time.Minute,
			MaxSessions:    64,
		})
		c.servers = append(c.servers, srv)
		url, err := c.listen(srv.Handler())
		if err != nil {
			c.stop()
			return nil, err
		}
		c.backends = append(c.backends, url)
		specs = append(specs, router.BackendSpec{URL: url, Weight: 1})
	}
	// cmd/galoisrouter's flag defaults, but for the policy the workloads
	// name: consistent-hash lands a repeat spec on the backend holding it.
	rt, err := router.New(router.Config{
		Backends:      specs,
		Policy:        "consistent-hash",
		ProbeInterval: 2 * time.Second,
		EjectAfter:    3,
		RecoverAfter:  5 * time.Second,
		Retries:       2,
		MaxBody:       1 << 20,
	})
	if err != nil {
		c.stop()
		return nil, err
	}
	c.rt = rt
	if c.front, err = c.listen(rt.Handler()); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// stop drains and stops everything the cluster started and waits for it.
func (c *cluster) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if c.rt != nil {
		_ = c.rt.Shutdown(ctx)
	}
	for _, srv := range c.servers {
		_ = srv.Shutdown(ctx)
	}
	for _, hs := range c.https {
		_ = hs.Shutdown(ctx)
	}
	c.serving.Wait()
}

// cacheCounters sums the backends' result-cache statistics.
func (c *cluster) cacheCounters() rescache.Counters {
	var sum rescache.Counters
	for _, s := range c.servers {
		cc := s.CacheCounters()
		sum.Hits += cc.Hits
		sum.Misses += cc.Misses
		sum.Evictions += cc.Evictions
		sum.Bytes += cc.Bytes
	}
	return sum
}

// routerRetries reads router.retries from the router's GET /metrics, the
// only place that counter is exposed.
func (c *cluster) routerRetries() float64 {
	text, err := serve.NewClient(c.front, nil).Metrics(context.Background())
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "router.retries "); ok {
			n, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return n
		}
	}
	return 0
}

// Paths an op can take to a backend, shortest first. Untraced ops always
// take the full client path through the router; the traced pass sends ops
// down each in turn and attributes the differences to the layers between.
const (
	pathExecute = iota // Server.Execute, no HTTP
	pathDirect         // Client.Submit straight to a galoisd
	pathRouter         // Client.Submit through the router
	numPaths
)

// loadClient is one closed-loop client: one keep-alive connection to the
// router (and, for the traced pass, one to each backend).
type loadClient struct {
	transport *http.Transport
	front     *serve.Client
	direct    []*serve.Client
}

func newLoadClient(c *cluster) *loadClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, IdleConnTimeout: 90 * time.Second}
	hc := &http.Client{Transport: tr}
	lc := &loadClient{transport: tr, front: serve.NewClient(c.front, hc)}
	for _, url := range c.backends {
		lc.direct = append(lc.direct, serve.NewClient(url, hc))
	}
	return lc
}

// serveOp is the record of one serving op.
type serveOp struct {
	cell    int
	path    int
	traced  bool
	latMS   float64
	runMS   float64
	queueMS float64
	// commits, aborts and rounds are the run's scheduler counters, as far
	// as a job response carries them.
	commits, aborts, rounds float64
	rcpt                    serve.Receipt
}

// request is one op a client is about to send: its cell, its spec, and what
// a correct response looks like.
type request struct {
	cell int
	spec serve.Spec
	// wantCached: the response must come from the result cache (serve-hit)
	// or must not (serve-miss). wantFP, when set, is the fingerprint the
	// spec produced at warm-up.
	wantCached bool
	wantFP     string
}

// serveSpec fixes what every spec of the serving workloads shares.
func serveSpec(kind string, seed uint64) serve.Spec {
	return serve.Spec{Kind: kind, Variant: "g-d", Scale: "small", Seed: seed, Threads: 1}
}

// missKinds are serve-miss's cells. msf is left out: three times the others
// at small scale, and an extension beyond the paper.
var missKinds = []string{"bfs", "mis", "sssp", "dt", "dmr", "pfp"}

// hitKinds are serve-hit's cells: the cacheable kinds (pfp and dmr mutate
// their input and are never cached).
var hitKinds = []string{"bfs", "mis", "sssp", "msf", "dt"}

const (
	hotSeedsPerKind = 8
	zipfS           = 1.1
)

// missRequest is client c's k-th op on serve-miss, a pure function of
// (seed, c, k): cells rotate, staggered by client so the backends see a mix
// at every instant, and the spec seed is never repeated — within a client
// because k only grows, across clients because each owns a 2^32 block.
func missRequest(seed uint64, c, k int) request {
	cell := (k + c*(len(missKinds)/2+1)) % len(missKinds)
	specSeed := rng.Mix64(seed)>>8 + uint64(c)<<32 + uint64(k)
	return request{cell: cell, spec: serveSpec(missKinds[cell], specSeed)}
}

// hotSpecs are serve-hit's 40 warmed specs in popularity-rank order; kinds
// interleave over the ranks so every cell gets a like share of the draws.
func hotSpecs(seed uint64) []serve.Spec {
	base := rng.Mix64(seed^0x686f74) >> 8
	specs := make([]serve.Spec, len(hitKinds)*hotSeedsPerKind)
	for r := range specs {
		specs[r] = serveSpec(hitKinds[r%len(hitKinds)], base+uint64(r/len(hitKinds)))
	}
	return specs
}

// zipfCum is the cumulative zipf(s) distribution over n ranks.
func zipfCum(n int, s float64) []float64 {
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

// hitRanks is client c's stream of popularity ranks, a pure function of
// (seed, c): a private seeded stream, never the global generator.
type hitRanks struct {
	rnd *rng.Rand
	cum []float64
}

func newHitRanks(seed uint64, c int) *hitRanks {
	return &hitRanks{
		rnd: rng.New(rng.Mix64(seed ^ (uint64(c)+1)*0x9e3779b97f4a7c15)),
		cum: zipfCum(len(hitKinds)*hotSeedsPerKind, zipfS),
	}
}

func (h *hitRanks) next() int {
	u := h.rnd.Float64()
	for i, c := range h.cum {
		if u < c {
			return i
		}
	}
	return len(h.cum) - 1
}

// serveBench is one serving workload after set-up.
type serveBench struct {
	env     *runEnv
	res     *runResult
	cl      *cluster
	kinds   []string
	clients []*loadClient
	// next yields client c's k-th request; k counts from the client's first
	// op of the process, warm-ups included.
	next func(c, k int) request
	// done[c] is how many requests client c has drawn.
	done []int
	// hot and hotFP are serve-hit's warmed specs, in popularity-rank order,
	// and the fingerprint each produced at warm-up.
	hot   []serve.Spec
	hotFP []string
	// refDigest folds the warm-up fingerprints into the value pinned in
	// goldens for seed 42.
	refDigest uint64
	ops       []serveOp
	rejected  int
}

func newServeBench(env *runEnv, res *runResult, kinds []string) (*serveBench, error) {
	cl, err := startCluster()
	if err != nil {
		return nil, err
	}
	b := &serveBench{env: env, res: res, cl: cl, kinds: kinds, done: make([]int, env.threads)}
	for i := 0; i < env.threads; i++ {
		b.clients = append(b.clients, newLoadClient(cl))
	}
	return b, nil
}

func (b *serveBench) close() {
	for _, lc := range b.clients {
		lc.transport.CloseIdleConnections()
	}
	b.cl.stop()
}

// retryBudget is how many 429 refusals an op may absorb before it fails.
const retryBudget = 4

// submit carries one request down path to a checked response.
func (b *serveBench) submit(lc *loadClient, c int, req request, path int) (serveOp, int, error) {
	ctx := context.Background()
	op := serveOp{cell: req.cell, path: path}
	backend := (c + req.cell) % clusterBackends
	rejected := 0
	for {
		var jr *serve.JobResult
		var err error
		start := now()
		switch path {
		case pathExecute:
			jr, err = b.cl.servers[backend].Execute(ctx, req.spec)
		case pathDirect:
			jr, err = lc.direct[backend].Submit(ctx, req.spec)
		default:
			jr, err = lc.front.Submit(ctx, req.spec)
		}
		op.latMS = msSince(start)
		var ae *serve.APIError
		if errors.As(err, &ae) && ae.IsRetryable() && rejected < retryBudget {
			rejected++
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if err != nil {
			return op, rejected, err
		}
		op.runMS, op.queueMS, op.rcpt = float64(jr.WallNS)/1e6, float64(jr.QueueNS)/1e6, jr.Receipt
		op.commits, op.aborts, op.rounds = float64(jr.Commits), float64(jr.Aborts), float64(jr.Rounds)
		cached := jr.Receipt.Cached
		switch {
		case cached != req.wantCached:
			return op, rejected, fmt.Errorf("cached=%v, want %v", cached, req.wantCached)
		case len(jr.Receipt.Fingerprint) != 16:
			return op, rejected, fmt.Errorf("malformed fingerprint %q", jr.Receipt.Fingerprint)
		case req.wantFP != "" && jr.Receipt.Fingerprint != req.wantFP:
			return op, rejected, fmt.Errorf("fingerprint %s, warm-up gave %s", jr.Receipt.Fingerprint, req.wantFP)
		}
		if cached {
			// A hit reports the producing execution's wall time; no run
			// happened on this request.
			op.runMS, op.queueMS = 0, 0
		}
		return op, rejected, nil
	}
}

// window drives the closed loop: every client sends its next request as
// soon as the previous one completes, until seconds have passed or it has
// sent maxOps (0: no cap). In a traced pass (tr non-nil) each op draws one
// of four modes from the client's seeded stream: untraced through the
// router, or traced down one of the three paths. Drawn, not rotated: the
// collector's cycles are periodic in ops sent, and a fixed rotation aliases
// with them until one (cell, path) pair meets every cycle and another none.
func (b *serveBench) window(seconds float64, maxOps int, tr *tracer) {
	type clientOut struct {
		ops      []serveOp
		rejected int
		fails    []string
		tried    int
	}
	outs := make([]clientOut, len(b.clients))
	var wg sync.WaitGroup
	start := now()
	for c := range b.clients {
		wg.Add(1)
		//detlint:ignore goroutineorder load clients: each goroutine writes only its own clientOut row, and rows are merged by client index after the join
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			modes := rng.New(rng.Mix64(b.env.seed ^ (uint64(c)+1)*0xd1342543de82ef95))
			for i := 0; maxOps == 0 || i < maxOps; i++ {
				if now().Sub(start).Seconds() >= seconds {
					break
				}
				req := b.next(c, b.done[c])
				b.done[c]++
				path, traced := pathRouter, false
				if tr != nil {
					if mode := modes.Intn(numPaths + 1); mode > 0 {
						path, traced = mode-1, true
					}
				}
				opStart := now()
				op, rejected, err := b.submit(b.clients[c], c, req, path)
				out.tried++
				out.rejected += rejected
				if err != nil {
					out.fails = append(out.fails, fmt.Sprintf("%s client %d: %v", req.spec, c, err))
					continue
				}
				op.traced = traced
				if traced {
					// The run and its queue wait are reported by the server,
					// not bracketed here; lay them end to end inside the op.
					t0 := tr.at(opStart)
					id := c<<24 | i
					root := tr.add("client.op", id, -1, t0, t0+int64(op.latMS*1e6))
					q := int64(op.queueMS * 1e6)
					tr.add("serve.queue", id, root, t0, t0+q)
					tr.add("serve.run", id, root, t0+q, t0+q+int64(op.runMS*1e6))
				}
				out.ops = append(out.ops, op)
			}
		}(c)
	}
	wg.Wait()
	for _, out := range outs {
		b.ops = append(b.ops, out.ops...)
		b.rejected += out.rejected
		b.res.Attempted += out.tried
		for _, f := range out.fails {
			b.res.fail("%s", f)
		}
	}
}

// warm sends reqs one after another through the router, untimed, and
// returns the fingerprints they produced. It uses client 0 alone, so what it
// sends — and the digest pinned over what comes back — does not depend on
// the host's client count.
func (b *serveBench) warm(reqs []request) ([]string, error) {
	fps := make([]string, len(reqs))
	for i, req := range reqs {
		b.res.Attempted++
		op, _, err := b.submit(b.clients[0], 0, req, pathRouter)
		if err != nil {
			return nil, fmt.Errorf("warming %s: %w", req.spec, err)
		}
		fps[i] = op.rcpt.Fingerprint
	}
	return fps, nil
}

// verifyReceipts replays up to n receipts through the router's POST /verify
// at threads=2: the router walks verifies round-robin over the backends, so
// a receipt is re-executed on a node and at a thread count that did not
// produce it. Each replay is one more op; a mismatch fails it.
func (b *serveBench) verifyReceipts(rcpts []serve.Receipt, n int) {
	if b.env.smoke {
		n = 2
	}
	for i, rcpt := range rcpts {
		if i >= n {
			break
		}
		rcpt.Spec.Threads = 2
		b.res.Attempted++
		vr, err := b.clients[0].front.Verify(context.Background(), rcpt)
		switch {
		case err != nil:
			b.res.fail("verify %s: %v", rcpt.Spec, err)
		case !vr.Match:
			b.res.fail("verify %s: receipt %s, replay at threads=2 gave %s", rcpt.Spec, vr.Expect, vr.Got)
		}
	}
}

// receiptsPerCell picks the first per receipts of every cell from the
// recorded ops, in cell order.
func (b *serveBench) receiptsPerCell(per int) []serve.Receipt {
	var out []serve.Receipt
	for cell := range b.kinds {
		n := 0
		for _, op := range b.ops {
			if op.cell == cell && n < per {
				out = append(out, op.rcpt)
				n++
			}
		}
	}
	return out
}

// samples groups router-path latencies by cell; traced selects the pass.
func (b *serveBench) samples(traced bool) []cellSamples {
	out := make([]cellSamples, len(b.kinds))
	for i, k := range b.kinds {
		out[i].name = k + "/g-d"
	}
	for _, op := range b.ops {
		if op.path == pathRouter && op.traced == traced {
			out[op.cell].ms = append(out[op.cell].ms, op.latMS)
		}
	}
	return out
}

// serveWorkload is what distinguishes serve-miss from serve-hit.
type serveWorkload struct {
	name  string
	kinds []string
	// tailQ is the percentile op_tail_ms reports: the highest that leaves
	// ten samples beyond it at the ops a cell collects in the window.
	tailQ float64
	// maxOps caps a client's timed ops (0: none). serve-miss needs it: each
	// never-repeated seed adds an input to the server's input cache, so
	// memory grows with ops sent, and peak_rss_mb is comparable between two
	// commits only when both sent the same number. The cap is sized to be
	// reached just before the window closes on the authoring box.
	maxOps func(env *runEnv) int
	// setup prepares the bench's request stream and warms the stack.
	// everyBackend asks for warmed specs to be resident on both backends,
	// which the traced pass's direct paths need.
	setup func(b *serveBench, everyBackend bool) error
	// receipts picks the receipts replayed after the window.
	receipts func(b *serveBench) []serve.Receipt
}

var serveMiss = serveWorkload{
	name:  "serve-miss",
	kinds: missKinds,
	tailQ: 0.75,
	maxOps: func(env *runEnv) int {
		// 4 sweeps of the six cells per second of window, shared by the
		// clients: about 85% of what the 2-core authoring box completes.
		return int(math.Ceil(env.seconds*4)) * len(missKinds) / env.threads
	},
	setup: func(b *serveBench, _ bool) error {
		b.next = func(c, k int) request { return missRequest(b.env.seed, c, k) }
		var reqs []request
		for k := 0; k < b.env.warmups()*len(missKinds); k++ {
			reqs = append(reqs, b.next(0, k))
		}
		b.done[0] = len(reqs)
		fps, err := b.warm(reqs)
		if err != nil {
			return err
		}
		b.refDigest = digestStrings(fps)
		return nil
	},
	receipts: func(b *serveBench) []serve.Receipt { return b.receiptsPerCell(2) },
}

var serveHit = serveWorkload{
	name:   "serve-hit",
	kinds:  hitKinds,
	tailQ:  0.99,
	maxOps: func(*runEnv) int { return 0 },
	setup: func(b *serveBench, everyBackend bool) error {
		b.hot = hotSpecs(b.env.seed)
		reqs := make([]request, len(b.hot))
		for r, spec := range b.hot {
			reqs[r] = request{cell: r % len(hitKinds), spec: spec}
		}
		var err error
		if b.hotFP, err = b.warm(reqs); err != nil {
			return err
		}
		b.refDigest = digestStrings(b.hotFP)
		if everyBackend {
			for _, srv := range b.cl.servers {
				for _, spec := range b.hot {
					if _, err := srv.Execute(context.Background(), spec); err != nil {
						return fmt.Errorf("warming %s on every backend: %w", spec, err)
					}
				}
			}
		}
		ranks := make([]*hitRanks, len(b.clients))
		for c := range ranks {
			ranks[c] = newHitRanks(b.env.seed, c)
		}
		b.next = func(c, _ int) request {
			r := ranks[c].next()
			return request{cell: r % len(hitKinds), spec: b.hot[r], wantCached: true, wantFP: b.hotFP[r]}
		}
		return nil
	},
	receipts: func(b *serveBench) []serve.Receipt {
		var out []serve.Receipt
		for r := 0; r < 12; r++ { // the twelve most popular specs
			out = append(out, serve.Receipt{Spec: b.hot[r], Fingerprint: b.hotFP[r], Deterministic: true})
		}
		return out
	},
}

// runServe is the untraced run of a serving workload.
func runServe(env *runEnv, w serveWorkload) (*runResult, error) {
	res := &runResult{Workload: w.name, Trace: env.trace}
	if env.trace {
		return res, traceServe(env, res, w)
	}
	var b *serveBench
	var setups []float64
	for i := 0; i < env.setupReps(); i++ {
		if b != nil {
			// The previous set-up's garbage is not this one's memory.
			b.close()
			runtime.GC()
		}
		start := now()
		var err error
		if b, err = newServeBench(env, res, w.kinds); err != nil {
			return nil, err
		}
		if err = w.setup(b, false); err != nil {
			b.close()
			return nil, err
		}
		setups = append(setups, now().Sub(start).Seconds())
	}
	defer b.close()
	checkGolden(env, res, w.name, b.refDigest)

	seconds, maxOps := env.seconds, w.maxOps(env)
	if env.smoke {
		seconds, maxOps = math.Inf(1), 2*len(w.kinds)
	}
	runtime.GC()
	m0, _ := heapCounts()
	u0 := usage()
	start := now()
	b.window(seconds, maxOps, nil)
	windowS := now().Sub(start).Seconds()
	u1 := usage()
	m1, _ := heapCounts()

	b.verifyReceipts(w.receipts(b), 12)

	res.setEndToEnd(env, b.samples(false), w.tailQ, setups,
		window{ops: len(b.ops), seconds: windowS, allocs: m1 - m0, cpuS: u1.cpuS - u0.cpuS})
	return res, nil
}

func runServeMiss(env *runEnv) (*runResult, error) { return runServe(env, serveMiss) }
func runServeHit(env *runEnv) (*runResult, error)  { return runServe(env, serveHit) }

// sessionBaseline drives one sssp session through the router — eight
// reweight batches and a chain verify at threads=2 — and reports the median
// batch time and the verify time. No end-to-end metric covers sessions; this
// is a recorded baseline.
func sessionBaseline(env *runEnv, res *runResult, front *serve.Client) (batchMS, verifyMS float64) {
	ctx := context.Background()
	fail := func(what string, err error) (float64, float64) {
		res.Attempted++
		res.fail("session %s: %v", what, err)
		return 0, 0
	}
	si, err := front.CreateSession(ctx, session.InitSpec{Kind: "sssp", Variant: "g-d", Scale: "small", Seed: env.seed, Threads: 1})
	if err != nil {
		return fail("create", err)
	}
	rnd := rng.New(rng.Mix64(env.seed ^ 0x73657373))
	var batches []float64
	for i := 0; i < 8; i++ {
		spec := session.BatchSpec{Op: "reweight", Edges: 16 + int(rnd.Uint64n(16)), Seed: rnd.Uint64()}
		start := now()
		if _, err := front.SessionBatch(ctx, si.ID, spec); err != nil {
			return fail("batch", err)
		}
		batches = append(batches, msSince(start))
	}
	start := now()
	out, err := front.SessionVerify(ctx, si.ID, "", 2)
	verifyMS = msSince(start)
	if err != nil {
		return fail("verify", err)
	}
	res.Attempted++
	if !out.Match {
		res.fail("session chain replay at threads=2 failed at link %d: %s", out.FailedIndex, out.Reason)
	}
	if _, err := front.CloseSession(ctx, si.ID); err != nil {
		return fail("close", err)
	}
	return median(batches), verifyMS
}
