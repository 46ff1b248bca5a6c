package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"galois/internal/serve"
)

// runServe is the serving miss path under a profiler: one server configured
// as cmd/galoisd configures it by default, behind a loopback listener, and
// two closed-loop HTTP clients that submit small-scale g-d specs of every
// registered kind in rotation, each with a seed no one has used before, for
// the duration d. The CPU profile covers the window; the heap profile is
// taken when the window ends and before the server shuts down, after a
// collection, so its inuse_space is what the finished jobs left behind.
func runServe(d time.Duration, cpuPath, memPath string) error {
	s := serve.NewServer(serve.Config{
		QueueDepth:     64,
		MaxThreads:     8,
		DefaultTimeout: 60 * time.Second,
		CacheBytes:     64 << 20,
		MaxSessions:    64,
	})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		_ = s.Shutdown(context.Background())
		ts.Close()
	}()
	ctx := context.Background()
	client := serve.NewClient(ts.URL, ts.Client())
	kinds, err := client.Kinds(ctx)
	if err != nil {
		return err
	}

	if cpuPath != "" {
		stop, err := startCPUProfile(cpuPath)
		if err != nil {
			return err
		}
		defer stop()
	}
	const clients = 2
	window, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	jobs := make([]int, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		//detlint:ignore goroutineorder load clients: each writes its own slot of jobs and errs, read after wg.Wait; job results are checked by nobody here
		go func(c int) {
			defer wg.Done()
			for k := 0; window.Err() == nil; k++ { // a job in flight when the window ends finishes
				spec := serve.Spec{Kind: kinds[(k+c)%len(kinds)], Variant: "g-d", Scale: "small",
					Seed: uint64(c+1)<<32 + uint64(k), Threads: 1}
				if _, err := client.Submit(ctx, spec); err != nil {
					errs[c] = fmt.Errorf("%s: %w", spec, err)
					return
				}
				jobs[c]++
			}
		}(c)
	}
	wg.Wait()
	served := 0
	for c := range jobs {
		if errs[c] != nil {
			return errs[c]
		}
		served += jobs[c]
	}

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	fmt.Printf("served %d never-repeated jobs in %v; live heap %.1f MiB, heap in use by the OS's count %.1f MiB\n",
		served, d, float64(ms.HeapAlloc)/(1<<20), float64(ms.HeapSys-ms.HeapReleased)/(1<<20))
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}
