package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"galois"
	"galois/internal/canon"
	"galois/internal/obs"
	"galois/internal/rescache"
	"galois/internal/session"
	"galois/internal/stats"
)

// Config sizes a Server. Zero values select the documented defaults.
type Config struct {
	// QueueDepth bounds the admission queue; a full queue rejects with
	// 429 + Retry-After. Default 64.
	QueueDepth int
	// Workers is the number of job-executing goroutines, and the engine
	// pool's retained-engine cap per thread count. Default GOMAXPROCS.
	Workers int
	// MaxThreads clamps per-job thread requests. Default 8.
	MaxThreads int
	// DefaultTimeout bounds queue wait + execution when the spec omits
	// timeout_ms; a chain verify gets one per link. Default 60s.
	DefaultTimeout time.Duration
	// Registry supplies the job kinds. Default DefaultRegistry().
	Registry *Registry
	// SessionKinds supplies the session kinds. Default
	// session.DefaultKinds().
	SessionKinds *session.KindSet
	// MaxSessions caps live (un-evicted) sessions. Default 64.
	MaxSessions int
	// SessionIdle > 0 starts the eviction janitor: a session with no
	// batch for this long loses its pinned state and gains a tombstone
	// link. 0 disables time-based eviction (explicit DELETE still works).
	SessionIdle time.Duration
	// CacheBytes sizes both caches. > 0 enables the content-addressed
	// result cache with that byte budget and gives the input cache the
	// same budget again; 0 (the default) disables result caching entirely
	// and leaves the input cache — which a server cannot run without — at
	// 64 MiB. cmd/galoisd defaults the flag to 64 MiB — the zero default
	// here keeps embedded and test servers result-cache-free unless they
	// opt in.
	CacheBytes int64
}

// maxBody bounds request bodies.
const maxBody = 1 << 20

func (c *Config) fillDefaults() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxThreads <= 0 {
		c.MaxThreads = 8
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.Registry == nil {
		c.Registry = DefaultRegistry()
	}
	if c.SessionKinds == nil {
		c.SessionKinds = session.DefaultKinds()
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
}

// Server is the deterministic analytics job service. Create with
// NewServer, expose via Handler, stop with Shutdown. Execution mechanics
// (admission, workers, engines, drain) live in the executor; the Server
// layers policy on top: spec normalization, the result cache, and the
// session subsystem.
type Server struct {
	cfg      Config
	reg      *Registry
	inputs   *inputCache
	exec     *executor
	sessions *session.Manager
	mux      *http.ServeMux

	// cache/flight are nil unless Config.CacheBytes enabled caching: the
	// result cache and the singleflight group collapsing identical
	// in-flight submissions.
	cache  *rescache.Cache
	flight *rescache.Flight

	// janitorStop ends the idle-eviction janitor; nil when SessionIdle=0.
	janitorStop chan struct{}
	janitorDone sync.WaitGroup
}

// NewServer builds a server from cfg and starts its workers.
func NewServer(cfg Config) *Server {
	cfg.fillDefaults()
	inputBytes := cfg.CacheBytes
	if inputBytes <= 0 {
		inputBytes = defaultInputCacheBytes
	}
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Registry,
		inputs:   newInputCache(inputBytes),
		exec:     newExecutor(cfg.Workers, cfg.QueueDepth),
		sessions: session.NewManager(cfg.SessionKinds, cfg.MaxSessions),
	}
	if cfg.CacheBytes > 0 {
		s.cache = rescache.New(cfg.CacheBytes)
		s.flight = rescache.NewFlight()
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /verify", s.handleVerify)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /kinds", s.handleKinds)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /sessions", s.handleSessionCreate)
	s.mux.HandleFunc("GET /sessions/{id}", s.handleSessionGet)
	s.mux.HandleFunc("DELETE /sessions/{id}", s.handleSessionClose)
	s.mux.HandleFunc("POST /sessions/{id}/batches", s.handleSessionBatch)
	s.mux.HandleFunc("POST /sessions/{id}/verify", s.handleSessionVerify)
	if cfg.SessionIdle > 0 {
		s.janitorStop = make(chan struct{})
		s.janitorDone.Add(1)
		//detlint:ignore goroutineorder eviction janitor: eviction timing is wall-clock policy by design; the tombstone link it seals is a pure function of the chain head and reason, never of when the sweep ran
		go s.janitor(cfg.SessionIdle)
	}
	return s
}

// janitor periodically evicts idle sessions. The sweep itself is also run
// inline by the session handlers, so eviction is visible to clients even
// without the ticker; the janitor's job is freeing pinned state on a
// server nobody is talking to.
func (s *Server) janitor(idle time.Duration) {
	defer s.janitorDone.Done()
	t := time.NewTicker(idle / 2)
	defer t.Stop()
	for {
		//detlint:ignore goroutineorder janitor tick-vs-stop: eviction timing is wall-clock policy by design; the tombstone link is a pure function of the chain head and reason
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			s.sweepSessions()
		}
	}
}

// sweepSessions evicts sessions idle past the configured threshold.
func (s *Server) sweepSessions() {
	if s.cfg.SessionIdle <= 0 {
		return
	}
	for range s.sessions.EvictIdle(time.Now().UnixNano(), s.cfg.SessionIdle.Nanoseconds()) {
		s.exec.count("serve.session.evict")
	}
}

// Handler returns the server's HTTP interface.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's metrics registry (counters accumulate for
// the life of the server).
func (s *Server) Metrics() *obs.Registry { return s.exec.met }

// PoolCounters snapshots the engine pool's checkout statistics.
func (s *Server) PoolCounters() PoolCounters { return s.exec.pool.Counters() }

// CacheCounters snapshots the result cache's statistics; the zero value
// when caching is disabled.
func (s *Server) CacheCounters() rescache.Counters {
	if s.cache == nil {
		return rescache.Counters{}
	}
	return s.cache.Counters()
}

// InputCacheCounters snapshots the input cache's statistics.
func (s *Server) InputCacheCounters() rescache.Counters { return s.inputs.cache.Counters() }

// count bumps a handler-side counter (metric cell 0, mutex-guarded).
func (s *Server) count(name string) { s.exec.count(name) }

// normalize validates a raw spec against the registry and config and fills
// defaults, returning the canonical spec a receipt will carry.
func (s *Server) normalize(spec Spec) (Spec, *Kind, *httpError) {
	spec = spec.WithDefaults()
	kind := s.reg.Lookup(spec.Kind)
	if kind == nil {
		return spec, nil, errf(http.StatusBadRequest, "unknown job kind %q (have %v)", spec.Kind, s.reg.Names())
	}
	switch spec.Variant {
	case "g-n", "g-d", "g-dnc":
	default:
		return spec, nil, errf(http.StatusBadRequest, "unknown variant %q (g-n|g-d|g-dnc)", spec.Variant)
	}
	herr := admitScale(spec.Scale)
	if herr != nil {
		return spec, nil, herr
	}
	if spec.Threads, herr = s.threads(spec.Threads, 0); herr != nil {
		return spec, nil, herr
	}
	if spec.TimeoutMS < 0 {
		return spec, nil, errf(http.StatusBadRequest, "negative timeout_ms")
	}
	return spec, kind, nil
}

// admitScale refuses every scale but small and default, before any input
// is built: the paper's full scale (10 M dt points, 2.5 M dmr points) has
// no budget a server could hold it to, so only cmd/repro runs it.
func admitScale(scale string) *httpError {
	switch scale {
	case "small", "default":
		return nil
	}
	return errf(http.StatusBadRequest, "scale %q is not served (small|default)", scale)
}

// threads resolves a request's thread count: the first positive of
// requested and fallback, else 1. More than MaxThreads is a 400.
func (s *Server) threads(requested, fallback int) (int, *httpError) {
	t := requested
	if t <= 0 {
		t = fallback
	}
	if t <= 0 {
		t = 1
	}
	if t > s.cfg.MaxThreads {
		return 0, errf(http.StatusBadRequest, "threads %d exceeds server limit %d", t, s.cfg.MaxThreads)
	}
	return t, nil
}

// Execute runs one job through admission: it is the common path of
// POST /jobs and POST /verify, and is also the in-process API the tests
// use directly.
func (s *Server) Execute(ctx context.Context, spec Spec) (*JobResult, error) {
	res, herr := s.execute(ctx, spec)
	if herr != nil {
		return nil, herr
	}
	return res, nil
}

func (s *Server) execute(ctx context.Context, spec Spec) (*JobResult, *httpError) {
	return s.executeMode(ctx, spec, false)
}

// executeMode is the common execution path. bypassCache marks POST
// /verify, which must reach a real engine run: it skips both the cache
// lookup and the singleflight join (its outcome still refreshes the cache,
// but is never read from it, so verification can never become circular).
func (s *Server) executeMode(ctx context.Context, spec Spec, bypassCache bool) (*JobResult, *httpError) {
	spec, kind, herr := s.normalize(spec)
	if herr != nil {
		return nil, herr
	}
	timeout := s.cfg.DefaultTimeout
	if spec.TimeoutMS > 0 {
		timeout = time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	deadline := time.Now().Add(timeout)
	key, cacheable := s.cacheKey(spec, kind)
	if !cacheable || bypassCache {
		return s.runJob(ctx, spec, kind, key, cacheable, false, deadline)
	}

	if v, ok := s.cache.Get(key); ok {
		s.count("serve.cache.hit")
		return v.(*cachedResult).result(), nil
	}
	s.count("serve.cache.miss")

	// Collapse concurrent identical submissions onto one execution. The
	// leader detaches from its own request context (submit still holds it
	// to the job deadline): a leader disconnect must not poison the
	// outcome its followers are waiting to share. Followers wait under
	// their own context, bounded by their own deadline.
	type outcome struct {
		res *JobResult
		err *httpError
	}
	wctx, wcancel := context.WithDeadline(ctx, deadline)
	defer wcancel()
	v, ferr, leader := s.flight.Do(wctx, key, func() (any, error) {
		res, lerr := s.runJob(context.WithoutCancel(ctx), spec, kind, key, true, true, deadline)
		return outcome{res: res, err: lerr}, nil
	})
	if ferr != nil {
		if errors.Is(ferr, rescache.ErrLeaderPanic) {
			return nil, errf(http.StatusInternalServerError, "job %s: %v", spec, ferr)
		}
		return nil, errf(http.StatusGatewayTimeout,
			"request context canceled while job %s in flight: %v", spec, ferr)
	}
	out := v.(outcome)
	if !leader {
		s.count("serve.cache.collapse")
		if out.res != nil {
			// Followers get their own copy: results must never be shared
			// mutable between responses.
			shared := *out.res
			return &shared, out.err
		}
	}
	return out.res, out.err
}

// runJob submits one job and waits for its result: the tail of every
// execution path, cached or not. key is the result-cache address of the
// spec when store or recheck is set. store caches the outcome after a
// successful run; recheck serves from the cache if the key was filled
// while the job queued (a verify re-execution can land the result first)
// so an admitted spec never executes twice. A verify sets store without
// recheck — it exists to run.
func (s *Server) runJob(ctx context.Context, spec Spec, kind *Kind, key rescache.Key, store, recheck bool, deadline time.Time) (*JobResult, *httpError) {
	what := func() string { return "job " + spec.String() }
	return submit(s.exec, ctx, deadline, what, func(tid int, admitted time.Time) (*JobResult, *httpError) {
		if recheck {
			if v, ok := s.cache.Get(key); ok {
				// Queued-then-cached: the result landed (via a verify)
				// while this job waited for a worker. Serving the resident copy keeps the
				// one-execution-per-spec property instead of running the
				// same pure function twice.
				s.exec.met.Counter("serve.cache.hit_queued").Add(tid, 1)
				return v.(*cachedResult).result(), nil
			}
		}
		ent, err := s.inputs.get(kind, spec.Scale, spec.Seed)
		if err != nil {
			return nil, errf(http.StatusBadRequest, "building input: %v", err)
		}
		if ent.exclusive {
			// Mutable input: this job gets exclusive use, restored to its
			// initial state first, so serialized jobs see identical inputs.
			ent.runMu.Lock()
			defer ent.runMu.Unlock()
			kind.Reset(ent.data)
		}

		var res *JobResult
		herr := s.exec.withEngine(spec.Threads, tid, func(eng *galois.Engine, engineHit bool) {
			var sink *galois.Trace
			if spec.Trace {
				sink = galois.NewTrace(spec.Threads)
			}
			opts := schedOpts(spec.Variant, spec.Threads, eng, sink)

			start := time.Now()
			fp, st := kind.Run(ent.data, opts)
			wall := time.Since(start)

			s.recordRun(tid, spec, st, wall)
			res = &JobResult{
				Receipt: Receipt{
					Spec:          spec,
					Fingerprint:   canon.Hex(fp),
					Deterministic: spec.Deterministic(),
				},
				WallNS:    wall.Nanoseconds(),
				QueueNS:   start.Sub(admitted).Nanoseconds(),
				Commits:   st.Commits,
				Aborts:    st.Aborts,
				Rounds:    st.Rounds,
				EngineHit: engineHit,
			}
			if sink != nil {
				var buf bytes.Buffer
				if err := sink.WriteChromeTrace(&buf); err == nil {
					res.Trace = json.RawMessage(buf.Bytes())
				}
			}
		})
		if herr != nil {
			return nil, errf(herr.status, "job %s: %s", spec, herr.msg)
		}
		if store {
			// Store before delivering the outcome: once the submitter (or a
			// flight follower) sees the receipt, the cache already has it,
			// so an immediate identical resubmission is a guaranteed hit.
			cr := &cachedResult{
				Receipt: res.Receipt,
				WallNS:  res.WallNS,
				Commits: res.Commits,
				Aborts:  res.Aborts,
				Rounds:  res.Rounds,
			}
			s.cache.Put(key, cr, cr.size())
		}
		return res, nil
	})
}

// recordRun publishes one finished run into the server's metrics.
func (s *Server) recordRun(tid int, spec Spec, st stats.Stats, wall time.Duration) {
	s.exec.met.Counter("serve.complete").Add(tid, 1)
	s.exec.met.Histogram("serve.job.wall_ms", obs.Pow2Bounds(1<<16)).Observe(tid, wall.Milliseconds())
	prefix := "serve.kind." + spec.Kind
	s.exec.met.Counter(prefix+".jobs").Add(tid, 1)
	s.exec.met.Counter(prefix+".commits").Add(tid, st.Commits)
	s.exec.met.Counter(prefix+".aborts").Add(tid, st.Aborts)
}

// Shutdown drains the server: new submissions are rejected with 503,
// queued and in-flight work all completes and delivers its receipts —
// session batches included — the workers exit, and the engine pool is
// closed. Returns ctx.Err() if the drain outlives ctx (workers keep
// draining regardless).
func (s *Server) Shutdown(ctx context.Context) error {
	if s.janitorStop != nil {
		select {
		case <-s.janitorStop:
		default:
			close(s.janitorStop)
		}
		s.janitorDone.Wait()
	}
	return s.exec.drain(ctx)
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.exec.draining() }

// --- HTTP handlers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, herr *httpError) {
	if herr.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(herr.retryAfter))
	}
	writeJSON(w, herr.status, errorBody{Error: herr.msg})
}

// decode reads a JSON request body into v, writing a 400 on failure. An
// optional body may be empty.
func decode(w http.ResponseWriter, r *http.Request, v any, optional bool) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil && !(optional && errors.Is(err, io.EOF)) {
		writeError(w, errf(http.StatusBadRequest, "decoding request: %v", err))
		return false
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if !decode(w, r, &spec, false) {
		return
	}
	res, herr := s.execute(r.Context(), spec)
	if herr != nil {
		writeError(w, herr)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var rcpt Receipt
	if !decode(w, r, &rcpt, false) {
		return
	}
	if rcpt.Fingerprint == "" {
		writeError(w, errf(http.StatusBadRequest, "receipt has no fingerprint"))
		return
	}
	// Verification bypasses the cache and the singleflight join: a
	// receipt is only a proof because /verify reaches a real engine run.
	res, herr := s.executeMode(r.Context(), rcpt.Spec, true)
	if herr != nil {
		writeError(w, herr)
		return
	}
	vr := VerifyResult{
		Match:         res.Receipt.Fingerprint == rcpt.Fingerprint,
		Deterministic: res.Receipt.Deterministic,
		Expect:        rcpt.Fingerprint,
		Got:           res.Receipt.Fingerprint,
		WallNS:        res.WallNS,
	}
	s.count("serve.verify")
	if !vr.Match {
		s.count("serve.verify.mismatch")
	}
	writeJSON(w, http.StatusOK, vr)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var buf bytes.Buffer
	_ = s.exec.met.WriteText(&buf)
	pc := s.exec.pool.Counters()
	fmt.Fprintf(&buf, "serve.pool.hits %d\n", pc.Hits)
	fmt.Fprintf(&buf, "serve.pool.misses %d\n", pc.Misses)
	fmt.Fprintf(&buf, "serve.pool.transients %d\n", pc.Transients)
	fmt.Fprintf(&buf, "serve.pool.scrubs %d\n", pc.Scrubs)
	fmt.Fprintf(&buf, "serve.queue.depth %d\n", len(s.exec.queue))
	fmt.Fprintf(&buf, "serve.queue.cap %d\n", s.cfg.QueueDepth)
	fmt.Fprintf(&buf, "serve.inflight %d\n", s.exec.InFlight())
	fmt.Fprintf(&buf, "serve.sessions.live %d\n", s.sessions.Live())
	if s.cache != nil {
		writeCacheCounters(&buf, "serve.rescache", s.cache.Counters())
	}
	// misses counts lookups, not builds: a cold cell is looked up twice,
	// before and inside its build flight. stores counts builds.
	writeCacheCounters(&buf, "serve.inputcache", s.inputs.cache.Counters())
	_, _ = w.Write(buf.Bytes())
}

func writeCacheCounters(buf *bytes.Buffer, prefix string, cc rescache.Counters) {
	fmt.Fprintf(buf, "%s.hits %d\n", prefix, cc.Hits)
	fmt.Fprintf(buf, "%s.misses %d\n", prefix, cc.Misses)
	fmt.Fprintf(buf, "%s.stores %d\n", prefix, cc.Stores)
	fmt.Fprintf(buf, "%s.evictions %d\n", prefix, cc.Evictions)
	fmt.Fprintf(buf, "%s.rejects %d\n", prefix, cc.Rejects)
	fmt.Fprintf(buf, "%s.entries %d\n", prefix, cc.Entries)
	fmt.Fprintf(buf, "%s.bytes_resident %d\n", prefix, cc.Bytes)
	fmt.Fprintf(buf, "%s.bytes_budget %d\n", prefix, cc.Budget)
}

func (s *Server) handleKinds(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{
		"kinds":         s.reg.Names(),
		"session_kinds": s.sessions.Kinds().Names(),
	})
}

// Healthz snapshots the server's load state: the probe target of a routing
// tier. Deliberately cheap — counters and queue length only, never an
// engine checkout — so a router polling every backend at a high rate costs
// the backends nothing.
func (s *Server) Healthz() Healthz {
	pc := s.exec.pool.Counters()
	draining := s.Draining()
	return Healthz{
		OK:           !draining,
		Draining:     draining,
		QueueDepth:   len(s.exec.queue),
		QueueCap:     s.cfg.QueueDepth,
		InFlight:     s.exec.InFlight(),
		Workers:      s.cfg.Workers,
		SessionsLive: s.sessions.Live(),
		Pool:         HealthzPool{Hits: pc.Hits, Misses: pc.Misses, Transients: pc.Transients},
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Healthz())
}
