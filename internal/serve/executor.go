package serve

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"galois"
	"galois/internal/obs"
)

// executor is the execution substrate under every kind of work — one-shot
// jobs, session batches and chain verifies: the bounded admission queue,
// the worker pool, the engine pool, graceful drain, and the metrics
// registry. Policy — caching, input resolution, chains — lives above it in
// Server; the executor only knows how to admit a task and hand it a worker
// and an engine. submit is the one way onto a worker.
type executor struct {
	// queue carries admitted tasks; tid is the running worker's metric
	// cell (>= 1; cell 0 is the handler side).
	queue   chan func(tid int)
	workers sync.WaitGroup
	pool    *EnginePool

	// inflight counts tasks currently executing on a worker (admitted
	// tasks still queued are visible as len(queue) instead). It is the
	// load signal a routing tier reads from GET /healthz, so it must be
	// cheap: one atomic per task, no locks, no engine checkout.
	inflight atomic.Int64

	// admitMu orders submissions against shutdown: submitters hold the
	// read side across the draining check and the queue send, drain holds
	// the write side while flipping the flag and closing the queue, so no
	// send can race the close.
	admitMu    sync.RWMutex
	isDraining bool

	// met collects serving metrics. Cell 0 is the handler side (guarded
	// by metMu — handlers run on arbitrary goroutines); cells 1..Workers
	// are single-writer per worker.
	met   *obs.Registry
	metMu sync.Mutex
}

// newExecutor builds the substrate and starts its workers. The engine pool
// retains up to one engine per worker for each thread count, so a steady
// mixed workload never constructs engines after warmup.
func newExecutor(workers, queueDepth int) *executor {
	x := &executor{
		queue: make(chan func(tid int), queueDepth),
		pool:  NewEnginePool(workers),
		met:   obs.NewRegistry(workers + 1),
	}
	x.workers.Add(workers)
	for w := 0; w < workers; w++ {
		//detlint:ignore goroutineorder task executors: each task's outcome returns over its own buffered channel and every deterministic result is a pure function of its spec, so worker scheduling never reaches committed output
		go x.worker(w)
	}
	return x
}

func (x *executor) worker(wid int) {
	defer x.workers.Done()
	for run := range x.queue {
		x.inflight.Add(1)
		run(wid + 1)
		x.inflight.Add(-1)
	}
}

// InFlight reports the number of tasks currently executing on workers.
func (x *executor) InFlight() int64 { return x.inflight.Load() }

// count bumps a handler-side counter (metric cell 0, mutex-guarded).
func (x *executor) count(name string) {
	c := x.met.Counter(name)
	x.metMu.Lock()
	c.Add(0, 1)
	x.metMu.Unlock()
}

// admit places run on the queue, or rejects it: 503 while draining, 429
// with Retry-After when the queue is full. Once admit returns nil the
// task will run — a queued task is never dropped, even during drain.
func (x *executor) admit(run func(tid int)) *httpError {
	x.admitMu.RLock()
	defer x.admitMu.RUnlock()
	if x.isDraining {
		x.count("serve.reject.draining")
		return errf(http.StatusServiceUnavailable, "server is draining; not accepting jobs")
	}
	select {
	case x.queue <- run:
	default:
		x.count("serve.reject.full")
		return &httpError{status: http.StatusTooManyRequests,
			msg: "job queue full", retryAfter: 1}
	}
	x.count("serve.admit")
	return nil
}

// submit is the one path from a handler to a worker: it admits fn, runs
// it on a worker, and waits for its outcome. fn receives the worker's
// metric cell and the time the task was admitted. The deadline bounds
// queue wait and execution together: a task whose deadline passed while
// it was queued never runs (it counts serve.timeout), and a caller whose
// deadline passes, or whose ctx ends, gets 504 at once. An admitted task
// that has started still runs to completion — its outcome lands in a
// buffered channel nobody reads, so a worker never blocks on a submitter
// that stopped listening. what names the work in error messages; it is
// called only to build one.
func submit[R any](x *executor, ctx context.Context, deadline time.Time, what func() string, fn func(tid int, admitted time.Time) (R, *httpError)) (R, *httpError) {
	type outcome struct {
		res R
		err *httpError
	}
	done := make(chan outcome, 1)
	admitted := time.Now()
	if herr := x.admit(func(tid int) {
		if time.Now().After(deadline) {
			x.met.Counter("serve.timeout").Add(tid, 1)
			done <- outcome{err: errf(http.StatusGatewayTimeout, "%s exceeded its deadline while queued", what())}
			return
		}
		res, err := fn(tid, admitted)
		done <- outcome{res: res, err: err}
	}); herr != nil {
		var zero R
		return zero, herr
	}
	expired := time.NewTimer(time.Until(deadline))
	defer expired.Stop()
	var zero R
	//detlint:ignore goroutineorder admission wait: this select only decides whether the HTTP response gets written; the task's result is a pure function of its spec (or recorded chain) and is delivered via the buffered channel regardless
	select {
	case out := <-done:
		return out.res, out.err
	case <-expired.C:
		return zero, errf(http.StatusGatewayTimeout, "%s exceeded its deadline", what())
	case <-ctx.Done():
		return zero, errf(http.StatusGatewayTimeout, "request context canceled while %s in flight: %v", what(), ctx.Err())
	}
}

// withEngine checks an engine out of the pool for the duration of fn,
// with panic containment: a panicking run discards the engine (its
// retained state is suspect) instead of returning it to the pool, and
// surfaces as a 500 rather than killing the worker.
func (x *executor) withEngine(threads, tid int, fn func(eng *galois.Engine, engineHit bool)) (herr *httpError) {
	eng, transient := x.pool.Get(threads)
	defer func() {
		if r := recover(); r != nil {
			x.pool.Discard(threads, eng, transient)
			x.met.Counter("serve.panic").Add(tid, 1)
			herr = errf(http.StatusInternalServerError, "run panicked: %v", r)
			return
		}
		x.pool.Put(threads, eng, transient)
	}()
	fn(eng, !transient)
	return nil
}

// drain flips admission to draining, lets the workers finish everything
// already admitted, then closes the engine pool. Returns ctx.Err() if the
// drain outlives ctx (workers keep draining regardless).
func (x *executor) drain(ctx context.Context) error {
	x.admitMu.Lock()
	if !x.isDraining {
		x.isDraining = true
		close(x.queue)
	}
	x.admitMu.Unlock()

	done := make(chan struct{})
	//detlint:ignore goroutineorder shutdown join: signals only that all workers exited; no result flows through it
	go func() {
		x.workers.Wait()
		close(done)
	}()
	//detlint:ignore goroutineorder shutdown wait: chooses between "drained" and "caller gave up"; job results are unaffected
	select {
	case <-done:
		x.pool.Drain()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (x *executor) draining() bool {
	x.admitMu.RLock()
	defer x.admitMu.RUnlock()
	return x.isDraining
}

// schedOpts translates a normalized (variant, threads) pair plus a
// checked-out engine into scheduler options — the single translation
// point for every execution path (one-shot jobs, session batches, chain
// replays).
func schedOpts(variant string, threads int, eng *galois.Engine, sink *galois.Trace) []galois.Option {
	opts := []galois.Option{galois.WithEngine(eng), galois.WithThreads(threads)}
	switch variant {
	case "g-d":
		opts = append(opts, galois.WithSched(galois.Deterministic))
	case "g-dnc":
		opts = append(opts, galois.WithSched(galois.Deterministic), galois.WithoutContinuation())
	}
	if sink != nil {
		opts = append(opts, galois.WithTrace(sink))
	}
	return opts
}
