// Command galoisload drives closed-loop load against a galoisd server and
// checks the determinism contract while doing so: every deterministic
// (kind, variant) cell must yield exactly one fingerprint no matter how
// many concurrent clients are hammering the server, and sampled receipts
// must re-verify through POST /verify.
//
//	galoisload -addr localhost:8090 -clients 1,8 -n 3 -verify 3
//	galoisload -inprocess -scale small -report serve-load.json
//	galoisload -inprocess -sessions 4 -batches 3
//	galoisload -targets localhost:8091,localhost:8092 -policy least-loaded
//	galoisload -router localhost:8090 -clients 8 -verify 5
//
// -targets spins up an in-process galoisrouter over the listed galoisd
// backends and drives the load through it; -router points at a running
// galoisrouter instead (backend count and policy are read from its
// /healthz). Either way the per-seed fingerprint policing below becomes a
// cross-backend determinism check — requests for one seed land on
// whichever backends the policy picks, and their fingerprints must still
// agree — and -verify replays receipts through the router's round-robin
// verify path, i.e. on nodes that did not produce them.
//
// -sessions adds a stateful-session phase: N concurrent clients each
// create a session, drive -batches chained mutation batches from a
// per-client partitioned seeded stream, and audit the resulting receipt
// chain through POST /sessions/{id}/verify.
//
// Exit status is 1 if any cell observed more than one fingerprint, any
// receipt failed verification, or any request errored.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"galois/internal/router"
	"galois/internal/serve"
)

func main() {
	addr := flag.String("addr", "", "galoisd address (host:port or URL); empty requires -inprocess, -targets or -router")
	inprocess := flag.Bool("inprocess", false, "spin up an in-process server instead of targeting -addr")
	targets := flag.String("targets", "", "comma-separated galoisd backends; spins up an in-process galoisrouter over them and drives the load through it")
	policyFlag := flag.String("policy", "round-robin", "routing policy of the in-process router (with -targets): round-robin|least-loaded|consistent-hash|weighted")
	routerAddr := flag.String("router", "", "address of a running galoisrouter; its /healthz supplies the backend count and policy the report lines name")
	kindsFlag := flag.String("kinds", "", "comma-separated job kinds (default: every kind the server registers)")
	variantsFlag := flag.String("variants", "g-d,g-dnc", "comma-separated variants")
	clientsFlag := flag.String("clients", "1,8", "comma-separated client concurrency levels")
	perClient := flag.Int("n", 3, "jobs per client per level")
	scale := flag.String("scale", "small", "input scale: small|default|full")
	seed := flag.Uint64("seed", 42, "input seed")
	threads := flag.Int("threads", 1, "per-job thread count")
	timeoutMS := flag.Int64("timeout-ms", 0, "per-job deadline in ms (0 = server default)")
	verifyN := flag.Int("verify", 0, "re-verify up to N receipts per level through POST /verify")
	reportPath := flag.String("report", "", "write the full load reports as JSON to this file")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "result-cache and input-cache byte budget of the -inprocess server (0 disables result caching)")
	sessionsN := flag.Int("sessions", 0, "run a stateful-session phase with N concurrent session clients (0 disables)")
	batchesN := flag.Int("batches", 3, "chained mutation batches per session (with -sessions)")
	sessionKinds := flag.String("session-kinds", "", "comma-separated session kinds (default: every kind the server registers)")
	sessionVariant := flag.String("session-variant", "g-d", "session scheduler variant: g-d|g-dnc")
	flag.Parse()

	ctx := context.Background()
	// clusterBackends/clusterPolicy label the report lines of runs driven
	// through a router.
	clusterBackends := 0
	clusterPolicy := ""
	var c *serve.Client
	switch {
	case *inprocess:
		s := serve.NewServer(serve.Config{CacheBytes: *cacheBytes})
		ts := httptest.NewServer(s.Handler())
		defer func() {
			_ = s.Shutdown(ctx)
			ts.Close()
		}()
		c = serve.NewClient(ts.URL, ts.Client())
	case *targets != "":
		var specs []router.BackendSpec
		for _, u := range splitCSV(*targets) {
			specs = append(specs, router.BackendSpec{URL: u})
		}
		rt, err := router.New(router.Config{Backends: specs, Policy: *policyFlag})
		if err != nil {
			fmt.Fprintf(os.Stderr, "galoisload: %v\n", err)
			os.Exit(2)
		}
		defer rt.Close()
		front := httptest.NewServer(rt.Handler())
		defer front.Close()
		c = serve.NewClient(front.URL, loadHTTPClient())
		clusterBackends, clusterPolicy = len(specs), rt.Policy()
	case *routerAddr != "":
		base := *routerAddr
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		c = serve.NewClient(base, loadHTTPClient())
		// The router's own healthz names its policy and backend set.
		h, err := routerHealthz(ctx, base)
		if err != nil {
			fmt.Fprintf(os.Stderr, "galoisload: router healthz: %v\n", err)
			os.Exit(1)
		}
		clusterBackends, clusterPolicy = len(h.Backends), h.Policy
	case *addr != "":
		base := *addr
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		c = serve.NewClient(base, loadHTTPClient())
	default:
		fmt.Fprintln(os.Stderr, "galoisload: need -addr, -inprocess, -targets or -router")
		os.Exit(2)
	}

	kinds := splitCSV(*kindsFlag)
	if len(kinds) == 0 {
		var err error
		if kinds, err = c.Kinds(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "galoisload: listing kinds: %v\n", err)
			os.Exit(1)
		}
	}
	variants := splitCSV(*variantsFlag)
	var levels []int
	for _, s := range splitCSV(*clientsFlag) {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "galoisload: bad -clients entry %q\n", s)
			os.Exit(2)
		}
		levels = append(levels, n)
	}

	failed := false
	var reports []*serve.Report
	for _, clients := range levels {
		cfg := serve.LoadConfig{
			Kinds: kinds, Variants: variants,
			Clients: clients, PerClient: *perClient,
			Scale: *scale, Seed: *seed, Threads: *threads, TimeoutMS: *timeoutMS,
		}
		start := time.Now()
		rep, err := serve.RunLoad(ctx, c, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "galoisload: %v\n", err)
			os.Exit(1)
		}
		reports = append(reports, rep)
		label := ""
		if clusterBackends > 0 {
			label = fmt.Sprintf(" backends=%d policy=%s", clusterBackends, clusterPolicy)
		}
		fmt.Printf("clients=%-3d%s requests=%-4d ok=%-4d rejected=%-3d errors=%-3d cachehits=%-4d wall=%v\n",
			clients, label, rep.Requests, rep.OK, rep.Rejected, rep.Errors, rep.CacheHits,
			time.Since(start).Round(time.Millisecond))
		for _, m := range rep.Mismatches {
			fmt.Printf("  DETERMINISM VIOLATION %s\n", m)
			failed = true
		}
		if rep.Errors > 0 {
			for _, e := range rep.ErrorSamples {
				fmt.Printf("  error: %s\n", e)
			}
			failed = true
		}
		for _, cs := range rep.Cells {
			fp := "-"
			if len(cs.Fingerprints) == 1 {
				fp = cs.Fingerprints[0]
			} else if len(cs.Fingerprints) > 1 {
				fp = fmt.Sprintf("%d distinct!", len(cs.Fingerprints))
			}
			fmt.Printf("  %-6s %-5s n=%-3d hits=%-3d median=%-10v max=%-10v fp=%s\n",
				cs.Kind, cs.Variant, cs.Requests, cs.CacheHits,
				time.Duration(cs.MedianNS).Round(time.Microsecond),
				time.Duration(cs.MaxNS).Round(time.Microsecond), fp)
		}

		mismatches, verified := 0, 0
		for _, r := range rep.Receipts {
			if verified >= *verifyN {
				break
			}
			if !r.Deterministic {
				continue
			}
			verified++
			vr, err := c.Verify(ctx, r)
			if err != nil {
				fmt.Fprintf(os.Stderr, "galoisload: verify %s: %v\n", r.Spec, err)
				failed = true
				continue
			}
			status := "match"
			if !vr.Match {
				status = "MISMATCH"
				mismatches++
				failed = true
			}
			fmt.Printf("  verify %-28s %s\n", r.Spec, status)
		}
		if *verifyN > 0 && mismatches > 0 {
			fmt.Printf("  %d receipt(s) FAILED verification\n", mismatches)
		}
	}

	if *sessionsN > 0 {
		cfg := serve.SessionLoadConfig{
			Kinds: splitCSV(*sessionKinds), Variant: *sessionVariant,
			Sessions: *sessionsN, Batches: *batchesN,
			Scale: *scale, Seed: *seed, Threads: *threads, TimeoutMS: *timeoutMS,
		}
		start := time.Now()
		rep, err := serve.RunSessionLoad(ctx, c, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "galoisload: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("sessions=%-3d batches=%-3d ok=%-4d rejected=%-3d errors=%-3d wall=%v\n",
			rep.Sessions, rep.Batches, rep.OK, rep.Rejected, rep.Errors,
			time.Since(start).Round(time.Millisecond))
		for _, v := range rep.VerifyFailures {
			fmt.Printf("  CHAIN VERIFY FAILURE %s\n", v)
			failed = true
		}
		if rep.Errors > 0 {
			for _, e := range rep.ErrorSamples {
				fmt.Printf("  error: %s\n", e)
			}
			failed = true
		}
		for _, cs := range rep.Cells {
			fmt.Printf("  session %-6s n=%-2d chain_len=%-3d median=%-10v max=%-10v chain=%.16s…\n",
				cs.Kind, cs.Sessions, cs.ChainLen,
				time.Duration(cs.MedianNS).Round(time.Microsecond),
				time.Duration(cs.MaxNS).Round(time.Microsecond), cs.FinalChain)
		}
	}

	if *reportPath != "" {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err == nil {
			err = os.WriteFile(*reportPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "galoisload: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "galoisload: wrote %s\n", *reportPath)
	}
	if failed {
		os.Exit(1)
	}
}

// loadHTTPClient returns a transport sized for closed-loop load: the
// default transport keeps only 2 idle conns per host, which churns
// connections (and ephemeral ports) once -clients goes past that.
func loadHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        512,
		MaxIdleConnsPerHost: 256,
		IdleConnTimeout:     90 * time.Second,
	}}
}

// routerHealthz fetches a galoisrouter's health snapshot.
func routerHealthz(ctx context.Context, base string) (*router.Healthz, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var h router.Healthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, err
	}
	if !h.OK {
		return nil, fmt.Errorf("router reports not ok (healthy=%d draining=%v)", h.Healthy, h.Draining)
	}
	return &h, nil
}

func splitCSV(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
