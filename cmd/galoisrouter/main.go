// Command galoisrouter fronts a set of galoisd backends with a routing
// tier. Because every deterministic job's output is a pure function of
// its canonical spec — independent of machine and thread count — routing
// is behavior-free: the same job mix yields byte-identical receipts
// whichever backend each job lands on. Placement has one rule and no flag:
// rendezvous hashing of the canonical spec key, so a repeat spec lands
// where its result is cached; requests without a key (g-n specs, session
// creation) go round-robin. POST /verify routes round-robin across ALL
// healthy backends on purpose, so receipts are continuously replayed on
// nodes that did not produce them.
//
//	galoisrouter -backends 127.0.0.1:8091,127.0.0.1:8092
//	curl -s localhost:8090/jobs -d '{"kind":"bfs","variant":"g-d","scale":"small"}'
//	curl -s localhost:8090/verify -d "$receipt"   # may land on either backend
//
// Backends are health-probed via their GET /healthz; consecutive failures
// eject a backend and a cooldown plus one probe success restores it.
// Retries are bounded and happen only on dial-phase connection errors
// (the request provably never reached admission — no duplicate
// execution); 429 + Retry-After pass through as cluster backpressure.
// Sessions stick to the backend that created them. SIGINT/SIGTERM drain:
// new requests get 503 while in-flight proxied requests finish.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"galois/internal/router"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the actual listen address to this file once bound (for scripts using :0)")
	backends := flag.String("backends", "", "comma-separated galoisd base URLs (required), e.g. 127.0.0.1:8091,127.0.0.1:8092")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "health-probe period against each backend's /healthz (0 disables active probing)")
	ejectAfter := flag.Int("eject-after", 3, "consecutive probe/dial failures that eject a backend")
	recoverAfter := flag.Duration("recover-after", 5*time.Second, "cooldown before an ejected backend gets a half-open recovery probe")
	retries := flag.Int("retries", 2, "max retries per request on dial-phase connection errors (never after a backend may have admitted)")
	maxBody := flag.Int64("max-body", 1<<20, "request body cap in bytes (bodies are buffered for retry replay)")
	drain := flag.Duration("drain", 30*time.Second, "shutdown grace period for in-flight proxied requests")
	flag.Parse()

	if *backends == "" {
		fmt.Fprintln(os.Stderr, "galoisrouter: -backends is required")
		os.Exit(2)
	}
	var specs []router.BackendSpec
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			specs = append(specs, router.BackendSpec{URL: u})
		}
	}

	rt, err := router.New(router.Config{
		Backends:      specs,
		ProbeInterval: *probeInterval,
		EjectAfter:    *ejectAfter,
		RecoverAfter:  *recoverAfter,
		Retries:       *retries,
		MaxBody:       *maxBody,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "galoisrouter: %v\n", err)
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "galoisrouter: %v\n", err)
		os.Exit(1)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "galoisrouter: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "galoisrouter: listening on %s — %d backends\n", ln.Addr(), len(specs))

	hs := &http.Server{Handler: rt.Handler()}
	errc := make(chan error, 1)
	//detlint:ignore goroutineorder single HTTP acceptor; lifecycle joined via errc/signal below
	go func() { errc <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	//detlint:ignore goroutineorder lifecycle select: whichever of signal/serve-error arrives ends the process; no committed output depends on the order
	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "galoisrouter: %v — draining\n", got)
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "galoisrouter: %v\n", err)
		os.Exit(1)
	}

	// Flip to draining (new requests 503), wait for in-flight proxied
	// requests, then close the listener. The backends drain their own
	// admitted work; the router only stops feeding them.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "galoisrouter: drain incomplete: %v\n", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "galoisrouter: http shutdown: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "galoisrouter: done")
}
