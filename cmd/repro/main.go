// Command repro regenerates the evaluation figures and tables of the paper
// "Deterministic Galois: On-demand, Portable and Parameterless" (ASPLOS
// 2014, §5) from this repository's reimplementation.
//
// Usage:
//
//	repro -fig 7                      # reproduce Figure 7 at default scale
//	repro -fig all -scale small       # smoke-run every figure
//	repro -fig 6 -threads 1,2,4,8     # explicit thread sweep
//	repro -fig 7 -scale full          # the paper's input sizes (slow)
//	repro -fig 7 -trace trace.json    # also dump a Chrome/Perfetto trace
//	repro -loop bfs/g-d -threads 2 -scale small
//	                                  # run one app/variant cell, print its fingerprint
//	repro -loop bfs/g-d,mis/g-d -reps 10 -threads 2 -cpuprofile cpu.pprof
//	                                  # profile a hot loop (make profile-finegrain)
//	repro -serve 15s -cpuprofile cpu.pprof -memprofile heap.pprof
//	                                  # profile the serving miss path (make profile-serve)
//
// Figure tables go to stdout; progress diagnostics go to stderr, so
// `repro -fig 7 > fig7.txt` captures a clean table.
//
// Absolute numbers differ from the paper (different hardware and runtime);
// each figure prints the shape claims it is expected to reproduce.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"galois"
	"galois/internal/harness"
)

func main() { os.Exit(run()) }

// run is main with a return code, so deferred profile writers run before
// the process exits.
func run() int {
	fig := flag.String("fig", "", "figure to reproduce: 4..12, 'all', 'window' (adaptive-window trace), or 'ext' (extensions)")
	scale := flag.String("scale", "default", "input scale: small|default|full")
	threadsFlag := flag.String("threads", "", "comma-separated thread counts (default: 1,2,4,...,GOMAXPROCS)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) of the traced runs to this file")
	loop := flag.String("loop", "", "comma-separated app/variant cells (e.g. bfs/g-d,mis/g-d) to run -reps times each on the shared engine at the largest thread count, printing the median wall per cell; the workload to put under -cpuprofile")
	reps := flag.Int("reps", 10, "with -loop: runs per cell")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of everything after input generation to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile (all allocations since start) to this file on exit; with -serve, the heap as it stands when the window ends")
	serveFor := flag.Duration("serve", 0, "instead of a figure: run an in-process galoisd (its flag defaults) for this long under two closed-loop clients submitting never-repeated small-scale specs of every kind — the workload to put under -cpuprofile and -memprofile when the question is what serving leaves behind")
	flag.Parse()

	if *serveFor > 0 {
		if err := runServe(*serveFor, *cpuProfile, *memProfile); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			return 1
		}
		return 0
	}
	if *fig == "" && *loop == "" {
		fmt.Fprintln(os.Stderr, "repro: -fig is required (4..12, 'all', 'window', 'ext') unless -loop or -serve is given")
		flag.Usage()
		return 2
	}
	sc, err := harness.ScaleByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		return 2
	}
	var threads []int
	if *threadsFlag != "" {
		for _, part := range strings.Split(*threadsFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v < 1 {
				fmt.Fprintf(os.Stderr, "repro: bad thread count %q\n", part)
				return 2
			}
			threads = append(threads, v)
		}
	}
	sweep := threads
	if len(sweep) == 0 {
		sweep = harness.DefaultThreadSweep()
	}
	maxT := 1
	for _, t := range sweep {
		if t > maxT {
			maxT = t
		}
	}

	fmt.Fprintf(os.Stderr, "generating inputs (scale=%s)...\n", sc.Name)
	in := harness.MakeInputs(sc)

	// One engine serves every figure sweep: the sweeps revisit the same
	// apps dozens of times, and reuse cuts the per-run allocation cost
	// without touching any measured output (the engine invariant).
	eng := galois.NewEngine(galois.WithThreads(maxT))
	defer eng.Close()
	in.Engine = eng

	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			return 1
		}
		defer stop()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "repro:", err)
				return
			}
			defer f.Close()
			runtime.GC() // bring the allocation statistics up to date
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "repro:", err)
			}
		}()
	}

	if *loop != "" {
		//detlint:ignore taintfp inputs carry harness timing state; the fingerprints printed come from det receipts, not timings
		if err := runLoop(os.Stdout, in, *loop, *reps, maxT); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			return 2
		}
	}

	// With -trace, every Galois run dispatched below feeds the same sink;
	// the export then holds one process per run. Tracing is non-perturbing,
	// so attaching it never changes the tables.
	var tr *galois.Trace
	if *tracePath != "" {
		tr = galois.NewTrace(maxT)
		in.TraceSink = tr
	}

	switch *fig {
	case "":
		// -loop only.
	case "ext":
		if err := harness.Extensions(in, sweep[len(sweep)-1], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			return 1
		}
	case "window":
		//detlint:ignore taintfp inputs carry harness timing state; report fingerprints come from det receipts, not timings
		if err := harness.WindowTrace(in, sweep[len(sweep)-1], tr, os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			return 1
		}
	default:
		var figs []int
		if *fig == "all" {
			for f := 4; f <= 12; f++ {
				figs = append(figs, f)
			}
		} else {
			f, err := strconv.Atoi(*fig)
			if err != nil {
				fmt.Fprintf(os.Stderr, "repro: bad figure %q\n", *fig)
				return 2
			}
			figs = []int{f}
		}
		for _, f := range figs {
			fmt.Println()
			//detlint:ignore taintfp inputs carry harness timing state; report fingerprints come from det receipts, not timings
			if err := harness.Figure(f, in, threads, os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "repro:", err)
				return 1
			}
		}
	}

	if tr != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			return 1
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote Chrome trace (%d events) to %s — load in Perfetto or chrome://tracing\n",
			tr.Len(), *tracePath)
		fmt.Fprint(os.Stderr, tr.Summary())
	}
	return 0
}

// startCPUProfile starts a CPU profile into path; stop ends it and closes
// the file.
func startCPUProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// runLoop runs each app/variant cell of spec reps times (after one untimed
// warm-up) and prints to w the cell's median wall and fingerprint, and — from
// the metrics registry, the only place they are published — how often a
// barrier waiter parked and how long waiters waited, per run. It is the
// command line's one way to run a single harness cell.
func runLoop(w io.Writer, in *harness.Inputs, spec string, reps, threads int) error {
	if reps < 1 {
		return fmt.Errorf("-reps must be at least 1")
	}
	type cell struct{ app, variant string }
	var cells []cell
	for _, c := range strings.Split(spec, ",") {
		app, variant, ok := strings.Cut(strings.TrimSpace(c), "/")
		if !ok || !slices.Contains(harness.Apps, app) || !slices.Contains(harness.Variants, variant) {
			return fmt.Errorf("bad -loop cell %q (want app/variant, e.g. bfs/g-d)", c)
		}
		cells = append(cells, cell{app, variant})
	}
	met := galois.NewMetrics(threads)
	in.Metrics = met
	defer func() { in.Metrics = nil }()
	parks, waitNS := met.Counter("galois_barrier_parks_total"), met.Counter("galois_barrier_wait_ns_total")
	for _, c := range cells {
		in.RunOnce(c.app, c.variant, threads, nil)
		parks0, wait0 := parks.Value(), waitNS.Value()
		walls := make([]time.Duration, reps)
		var fp uint64
		for i := range walls {
			r := in.RunOnce(c.app, c.variant, threads, nil)
			walls[i], fp = r.Elapsed, r.Fingerprint
		}
		sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
		fmt.Fprintf(w, "%s/%s threads=%d reps=%d median=%.2fms min=%.2fms parks/run=%.1f barrier-wait=%.2fms/run fingerprint=%#x\n",
			c.app, c.variant, threads, reps,
			float64(walls[reps/2].Microseconds())/1e3, float64(walls[0].Microseconds())/1e3,
			float64(parks.Value()-parks0)/float64(reps), float64(waitNS.Value()-wait0)/float64(reps)/1e6, fp)
	}
	return nil
}
