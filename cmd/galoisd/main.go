// Command galoisd serves the repository's analytics apps as deterministic
// network jobs. Every response carries a fingerprint receipt; POST /verify
// re-executes a receipt and reports match/mismatch, so a client can audit
// any answer it was ever given — including on a different machine or at a
// different thread count, which is the paper's portability property turned
// into an API contract.
//
// Determinism also makes results cacheable: a det job's output is a pure
// function of its normalized spec, so repeat submissions are served from a
// content-addressed result cache (-cache-bytes, default 64 MiB) without an
// engine execution — the response carries the same fingerprint with
// "cached": true; POST /verify is the audit of any such answer, and it
// always re-executes. The same flag sizes the input cache: built graphs,
// point sets and networks are shared between jobs in a second LRU with
// the same byte budget, so never-repeated seeds cannot grow the process.
//
// Stateful sessions make mutation a first-class API: POST /sessions pins
// a long-lived mutable input (a dmr mesh, an sssp graph) server-side,
// POST /sessions/{id}/batches applies deterministic mutation batches
// against it, and every batch receipt extends a hash chain —
// POST /sessions/{id}/verify replays the whole chain from the recorded
// initial spec and checks it, optionally against the client's last
// receipt alone. Idle sessions are evicted after -session-idle with a
// tombstone link sealing the chain.
//
// Jobs, session batches and chain verifies share one admission queue
// (-queue; full => 429) and one set of -workers workers, each keeping up
// to one pooled engine per thread count; -timeout is the default per-task
// deadline (per link for a chain verify), which bounds queue wait and run
// together.
//
//	galoisd -addr :8090
//	curl -s localhost:8090/jobs -d '{"kind":"bfs","variant":"g-d","scale":"small"}'
//	curl -s localhost:8090/verify -d "$receipt"
//	curl -s localhost:8090/sessions -d '{"kind":"dmr","scale":"small","seed":42}'
//
// Endpoints: POST /jobs, POST /verify, GET /metrics, GET /kinds,
// GET /healthz, POST /sessions, GET|DELETE /sessions/{id},
// POST /sessions/{id}/batches, POST /sessions/{id}/verify.
// SIGINT/SIGTERM drain in-flight and queued work — session batches
// included — before exiting; new submissions are rejected with 503 while
// draining.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"galois/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the actual listen address to this file once bound (for scripts using :0)")
	workers := flag.Int("workers", 0, "job-executing workers, and retained engines per thread count (default GOMAXPROCS)")
	queue := flag.Int("queue", 64, "admission queue depth (full queue => 429 + Retry-After)")
	maxThreads := flag.Int("max-threads", 8, "clamp on per-job thread requests")
	timeout := flag.Duration("timeout", 60*time.Second, "default per-job deadline when the spec omits one")
	drain := flag.Duration("drain", 2*time.Minute, "shutdown grace period for draining admitted jobs")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "byte budget of the result cache and, again, of the input cache; repeat det specs are served from the result cache at lookup speed (0 disables it and leaves the input cache at 64 MiB)")
	sessionIdle := flag.Duration("session-idle", 10*time.Minute, "evict sessions with no batch for this long, sealing a tombstone link (0 disables)")
	maxSessions := flag.Int("max-sessions", 64, "cap on live (un-evicted) sessions; creation beyond it gets 429")
	flag.Parse()

	s := serve.NewServer(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		MaxThreads:     *maxThreads,
		DefaultTimeout: *timeout,
		CacheBytes:     *cacheBytes,
		SessionIdle:    *sessionIdle,
		MaxSessions:    *maxSessions,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "galoisd: %v\n", err)
		os.Exit(1)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "galoisd: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "galoisd: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	//detlint:ignore goroutineorder single HTTP acceptor; lifecycle joined via errc/signal below
	go func() { errc <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	//detlint:ignore goroutineorder lifecycle select: whichever of signal/serve-error arrives ends the process; no committed output depends on the order
	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "galoisd: %v — draining\n", got)
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "galoisd: %v\n", err)
		os.Exit(1)
	}

	// Drain job queue first (in-flight and queued jobs complete, receipts
	// delivered, new submissions 503), then stop accepting connections.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "galoisd: drain incomplete: %v\n", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "galoisd: http shutdown: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "galoisd: done")
}
