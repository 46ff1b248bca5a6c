package harness

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"galois"
	"galois/internal/apps/bfs"
	"galois/internal/apps/blackscholes"
	"galois/internal/apps/bodytrack"
	"galois/internal/apps/cavity"
	"galois/internal/apps/freqmine"
	"galois/internal/apps/mis"
	"galois/internal/apps/mm"
	"galois/internal/cachesim"
	"galois/internal/catalog"
	"galois/internal/coredet"
	"galois/internal/graph"
	"galois/internal/linreg"
)

// WindowTrace renders the adaptive window's per-round evolution for one
// deterministic run of each app — the §3.2 calculateWindow mechanism made
// visible. Not a paper figure; a bonus diagnostic for the parameterless
// claim (the trace depends only on commit counts, never on threads).
//
// The per-round data comes from the obs trace sink tr, which accumulates
// every app's events and can afterwards be exported as Chrome trace JSON;
// pass nil to use a throwaway sink. Figure tables go to w; progress
// diagnostics go to diag (so `repro ... > table.txt` stays clean).
func WindowTrace(in *Inputs, threads int, tr *galois.Trace, w, diag io.Writer) error {
	if tr == nil {
		tr = galois.NewTrace(threads)
	}
	prev := in.TraceSink
	in.TraceSink = tr
	defer func() { in.TraceSink = prev }()

	fmt.Fprintf(w, "Adaptive window trace (threads=%d; identical for any thread count)\n", threads)
	for _, app := range appNames(false) {
		fmt.Fprintf(diag, "tracing %s (g-d, %d threads)\n", app, threads)
		before := len(tr.Rounds())
		r := in.RunOnce(app, "g-d", threads, nil)
		rounds := tr.Rounds()[before:]
		fmt.Fprintf(w, "\n%s: %d rounds, mean window %.1f\n  round:window/committed ",
			app, r.Stats.Rounds, r.Stats.MeanWindow())
		step := len(rounds)/12 + 1
		for i := 0; i < len(rounds); i += step {
			fmt.Fprintf(w, " %d:%d/%d", i, rounds[i].Window, rounds[i].Committed)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Extensions renders the library-extension comparison (mm, msf, sssp —
// not paper figures): per variant timings plus the msf re-run of the
// paper's mis lesson, that a deterministic-by-construction algorithm beats
// deterministic scheduling of a non-deterministic one when it exists. msf
// and sssp are the catalog's apps outside the paper and run on their
// catalog inputs; mm, which galoisd does not serve, keeps its own graph.
func Extensions(in *Inputs, threads int, w io.Writer) error {
	fmt.Fprintf(w, "Extensions (mm, msf, sssp) at %d threads\n", threads)
	g := graph.Symmetrize(graph.RandomKOut(in.sc.BFSNodes/10, 5, in.sc.Seed+20))

	row := func(name string, elapsed time.Duration) {
		fmt.Fprintf(w, "  %-14s %12s\n", name, elapsed.Round(time.Microsecond))
	}
	timeIt := func(name string, f func()) {
		start := time.Now()
		f()
		row(name, time.Since(start))
	}
	fmt.Fprintln(w, "maximal matching:")
	timeIt("seq", func() { mm.Seq(g) })
	timeIt("g-n", func() { mm.Galois(g, galois.WithThreads(threads)) })
	timeIt("g-d", func() { mm.Galois(g, galois.WithThreads(threads), galois.WithSched(galois.Deterministic)) })
	timeIt("pbbs", func() { mm.PBBS(g, threads) })
	for _, app := range appNames(false) {
		if in.apps[app].Paper {
			continue
		}
		fmt.Fprintf(w, "%s:\n", app)
		for _, variant := range catalog.Variants {
			if in.Has(app, variant) {
				row(variant, in.RunOnce(app, variant, threads, nil).Elapsed)
			}
		}
	}
	fmt.Fprintln(w, "\nNote the msf shape: the round-based deterministic-by-construction boruvka")
	fmt.Fprintln(w, "variant (pbbs) dominates DIG scheduling of contraction — the paper's mis lesson (§5.3).")
	return nil
}

// Figure runs the reproduction of one paper figure/table and writes it to w.
func Figure(n int, in *Inputs, threads []int, w io.Writer) error {
	if len(threads) == 0 {
		threads = DefaultThreadSweep()
	}
	fig, ok := map[int]func(*Inputs, []int, io.Writer) error{
		4: Fig4, 5: Fig5, 6: Fig6, 7: Fig7, 9: Fig9, 10: Fig10, 11: Fig11, 12: Fig12,
		8: func(in *Inputs, _ []int, w io.Writer) error { return Fig8(in, w) },
	}[n]
	if !ok {
		return fmt.Errorf("harness: the paper has no figure %d in §5 (use 4-12)", n)
	}
	return fig(in, threads, w)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// Fig4 reproduces Figure 4: task execution rates, abort ratios and round
// counts at 1 thread and at the maximum thread count.
func Fig4(in *Inputs, threads []int, w io.Writer) error {
	maxT := slices.Max(threads)
	fmt.Fprintf(w, "Figure 4: committed tasks/us, abort ratio, rounds (threads: 1 and %d)\n", maxT)
	fmt.Fprintf(w, "%-6s %-6s | %12s %12s %10s | %12s %12s %10s\n",
		"app", "var", "tasks/us@1", "abort@1", "rounds@1", fmt.Sprintf("tasks/us@%d", maxT),
		fmt.Sprintf("abort@%d", maxT), fmt.Sprintf("rounds@%d", maxT))
	for _, app := range appNames(true) {
		for _, variant := range []string{"g-n", "g-d", "pbbs"} {
			if !in.Has(app, variant) {
				continue
			}
			r1 := in.RunMedian(app, variant, 1)
			rm := in.RunMedian(app, variant, maxT)
			fmt.Fprintf(w, "%-6s %-6s | %12.3f %12.4f %10d | %12.3f %12.4f %10d\n",
				app, variant,
				r1.Stats.CommitsPerMicro(), r1.Stats.AbortRatio(), r1.Stats.Rounds,
				rm.Stats.CommitsPerMicro(), rm.Stats.AbortRatio(), rm.Stats.Rounds)
		}
	}
	fmt.Fprintln(w, "\nShape checks vs the paper: g-n abort ratios ~0; deterministic")
	fmt.Fprintln(w, "variants abort even at 1 thread; deterministic variants run in rounds.")
	return nil
}

// runParsec measures one pthread-style app — a PARSEC kernel, a cavity
// profile or Figure 6's bfs-pt/mis-pt; returns elapsed and sync-op rate.
func runParsec(in *Inputs, app string, threads int, enabled bool) (time.Duration, float64) {
	sc := in.sc
	rt := coredet.New(enabled, 0)
	start := time.Now()
	switch app {
	case "blackscholes":
		blackscholes.Run(blackscholes.GenPortfolio(sc.BSOptions, sc.Seed+10), sc.BSRounds, threads, rt)
	case "bodytrack":
		bodytrack.Run(bodytrack.Config{Particles: sc.BTParticles, Frames: sc.BTFrames}, threads, rt, sc.Seed+11)
	case "freqmine":
		cfg := freqmine.DefaultConfig()
		cfg.Transactions = sc.FMTxns
		freqmine.Run(cfg, freqmine.GenTransactions(cfg, sc.Seed+12), threads, rt)
	case "dmr-pt":
		cavity.Run(cavity.DMRProfile(sc.CavityTasks), threads, rt, sc.Seed+13)
	case "dt-pt":
		cavity.Run(cavity.DTProfile(sc.CavityTasks), threads, rt, sc.Seed+14)
	case "bfs-pt":
		PThreadBFS(in, threads, rt)
	case "mis-pt":
		PThreadMIS(in, threads, rt)
	default:
		panic("harness: unknown pthread-style app " + app)
	}
	elapsed := time.Since(start)
	us := elapsed.Seconds() * 1e6
	rate := 0.0
	if us > 0 {
		rate = float64(rt.SyncOps()) / us
	}
	return elapsed, rate
}

// Fig5 reproduces Figure 5: atomic update rates, contrasting the PARSEC
// applications with the irregular benchmarks.
func Fig5(in *Inputs, threads []int, w io.Writer) error {
	maxT := slices.Max(threads)
	fmt.Fprintf(w, "Figure 5: atomic updates/us (threads: 1 and %d)\n", maxT)
	fmt.Fprintf(w, "%-14s %-6s | %14s %14s\n", "app", "var", "atomics/us@1", fmt.Sprintf("atomics/us@%d", maxT))
	for _, app := range appNames(true) {
		for _, variant := range []string{"g-n", "g-d", "pbbs"} {
			if !in.Has(app, variant) {
				continue
			}
			r1 := in.RunMedian(app, variant, 1)
			rm := in.RunMedian(app, variant, maxT)
			fmt.Fprintf(w, "%-14s %-6s | %14.3f %14.3f\n",
				app, variant, r1.Stats.AtomicsPerMicro(), rm.Stats.AtomicsPerMicro())
		}
	}
	for _, app := range []string{"blackscholes", "bodytrack", "freqmine"} {
		_, rate1 := runParsec(in, app, 1, false)
		_, rateM := runParsec(in, app, maxT, false)
		fmt.Fprintf(w, "%-14s %-6s | %14.3f %14.3f\n", app, "pt", rate1, rateM)
	}
	fmt.Fprintln(w, "\nShape check vs the paper: the PARSEC codes synchronize orders of")
	fmt.Fprintln(w, "magnitude less often than the irregular benchmarks.")
	return nil
}

// Fig6 reproduces Figure 6: speedups with and without CoreDet-style
// deterministic thread scheduling.
func Fig6(in *Inputs, threads []int, w io.Writer) error {
	apps := []string{"blackscholes", "bodytrack", "freqmine", "bfs-pt", "mis-pt", "dmr-pt", "dt-pt"}
	fmt.Fprintln(w, "Figure 6: speedup over plain 1-thread, with and without CoreDet")
	fmt.Fprintf(w, "%-14s %-8s |", "app", "mode")
	for _, t := range threads {
		fmt.Fprintf(w, " %8s", fmt.Sprintf("t=%d", t))
	}
	fmt.Fprintln(w)
	var slowdowns, pbbsSlowdowns []float64
	maxT := slices.Max(threads)
	for _, app := range apps {
		base, _ := runParsec(in, app, 1, false)
		var coredetMax, plainMax time.Duration
		for _, enabled := range []bool{false, true} {
			mode := "plain"
			if enabled {
				mode = "coredet"
			}
			fmt.Fprintf(w, "%-14s %-8s |", app, mode)
			for _, t := range threads {
				el, _ := runParsec(in, app, t, enabled)
				fmt.Fprintf(w, " %8.2f", base.Seconds()/el.Seconds())
				if t == maxT {
					if enabled {
						coredetMax = el
					} else {
						plainMax = el
					}
				}
			}
			fmt.Fprintln(w)
		}
		sd := coredetMax.Seconds() / plainMax.Seconds()
		slowdowns = append(slowdowns, sd)
		switch app {
		case "bfs-pt", "mis-pt", "dmr-pt", "dt-pt":
			pbbsSlowdowns = append(pbbsSlowdowns, sd)
		}
	}
	fmt.Fprintf(w, "\nCoreDet slowdown at %d threads: median %.2fx over all apps;\n", maxT, median(slowdowns))
	fmt.Fprintf(w, "median %.2fx over the modified-PBBS programs (the paper's 3.7x; min 1.3x, max 55x)\n",
		median(pbbsSlowdowns))
	fmt.Fprintln(w, "Shape check: blackscholes tolerates CoreDet; the sync-heavy irregular")
	fmt.Fprintln(w, "codes (bfs, dmr, dt) collapse; the data-parallel mis survives.")
	return nil
}

// Fig7 reproduces Figure 7: speedups of g-n, g-d and pbbs over the best
// sequential baseline.
func Fig7(in *Inputs, threads []int, w io.Writer) error {
	fmt.Fprintln(w, "Figure 7: speedup over best sequential baseline (Figure 8)")
	fmt.Fprintf(w, "%-6s %-6s |", "app", "var")
	for _, t := range threads {
		fmt.Fprintf(w, " %8s", fmt.Sprintf("t=%d", t))
	}
	fmt.Fprintln(w)
	maxT := slices.Max(threads)
	var gnOverPbbs, gdOverPbbs []float64
	for _, app := range appNames(true) {
		base := in.RunMedian(app, "seq", 1).Elapsed
		atMax := map[string]time.Duration{}
		for _, variant := range []string{"g-n", "g-d", "pbbs"} {
			if !in.Has(app, variant) {
				continue
			}
			fmt.Fprintf(w, "%-6s %-6s |", app, variant)
			for _, t := range threads {
				r := in.RunMedian(app, variant, t)
				fmt.Fprintf(w, " %8.2f", base.Seconds()/r.Elapsed.Seconds())
				if t == maxT {
					atMax[variant] = r.Elapsed
				}
			}
			fmt.Fprintln(w)
		}
		if pb, ok := atMax["pbbs"]; ok {
			gnOverPbbs = append(gnOverPbbs, pb.Seconds()/atMax["g-n"].Seconds())
			gdOverPbbs = append(gdOverPbbs, pb.Seconds()/atMax["g-d"].Seconds())
		}
	}
	fmt.Fprintf(w, "\nAt %d threads: median g-n/pbbs %.2fx (paper 2.4x), median g-d/pbbs %.2fx (paper 0.62x)\n",
		maxT, median(gnOverPbbs), median(gdOverPbbs))
	return nil
}

// Fig8 reproduces Figure 8: the sequential baseline times.
func Fig8(in *Inputs, w io.Writer) error {
	fmt.Fprintln(w, "Figure 8: baseline sequential times (best 1-thread variant)")
	fmt.Fprintf(w, "%-6s %-10s %12s\n", "app", "variant", "time")
	for _, app := range appNames(true) {
		r := in.RunMedian(app, "seq", 1)
		fmt.Fprintf(w, "%-6s %-10s %12s\n", app, "seq", r.Elapsed.Round(time.Millisecond))
	}
	return nil
}

// relToPBBS computes t_pbbs(p)/t_var(p) across the sweep.
func relToPBBS(in *Inputs, app, variant string, threads []int) (mean, maxV, i1, imax float64) {
	maxT := slices.Max(threads)
	var sum float64
	n := 0
	for _, t := range threads {
		pb := in.RunMedian(app, "pbbs", t).Elapsed.Seconds()
		v := in.RunMedian(app, variant, t).Elapsed.Seconds()
		rel := pb / v
		sum += rel
		n++
		if rel > maxV {
			maxV = rel
		}
		if t == 1 {
			i1 = rel
		}
		if t == maxT {
			imax = rel
		}
	}
	mean = sum / float64(n)
	return
}

// Fig9 reproduces Figure 9: performance relative to the PBBS variant.
func Fig9(in *Inputs, threads []int, w io.Writer) error {
	fmt.Fprintln(w, "Figure 9: performance relative to the pbbs variant (t_pbbs/t_var)")
	fmt.Fprintf(w, "%-6s %-6s | %8s %8s %8s %8s\n", "app", "var", "mean", "max", "I1", "Imax")
	var gdImax []float64
	for _, app := range appNames(true) {
		if !in.Has(app, "pbbs") {
			continue
		}
		for _, variant := range []string{"g-n", "g-d"} {
			mean, maxV, i1, imax := relToPBBS(in, app, variant, threads)
			fmt.Fprintf(w, "%-6s %-6s | %8.2f %8.2f %8.2f %8.2f\n", app, variant, mean, maxV, i1, imax)
			if variant == "g-d" {
				gdImax = append(gdImax, imax)
			}
		}
		fmt.Fprintf(w, "%-6s %-6s | %8.2f %8.2f %8.2f %8.2f\n", app, "pbbs", 1.0, 1.0, 1.0, 1.0)
	}
	fmt.Fprintf(w, "\nMedian g-d vs pbbs at max threads: %.2fx (paper: 0.62x, 0.70x without mis)\n",
		median(gdImax))
	return nil
}

// Fig10 reproduces Figure 10: the continuation-optimization ablation.
func Fig10(in *Inputs, threads []int, w io.Writer) error {
	fmt.Fprintln(w, "Figure 10: deterministic scheduling without the continuation optimization")
	fmt.Fprintf(w, "%-6s %-7s | %8s %8s %8s %8s\n", "app", "var", "mean", "max", "I1", "Imax")
	var improvements []float64
	maxT := slices.Max(threads)
	for _, app := range appNames(true) {
		if in.Has(app, "pbbs") {
			mean, maxV, i1, imax := relToPBBS(in, app, "g-dnc", threads)
			fmt.Fprintf(w, "%-6s %-7s | %8.2f %8.2f %8.2f %8.2f\n", app, "g-dnc", mean, maxV, i1, imax)
		}
		// Continuation improvement = t_g-dnc / t_g-d at max threads.
		nc := in.RunMedian(app, "g-dnc", maxT).Elapsed.Seconds()
		withC := in.RunMedian(app, "g-d", maxT).Elapsed.Seconds()
		improvements = append(improvements, nc/withC)
	}
	fmt.Fprintf(w, "\nContinuation optimization speedup (t_nocont/t_cont at %d threads):", maxT)
	for i, app := range appNames(true) {
		fmt.Fprintf(w, " %s=%.2fx", app, improvements[i])
	}
	fmt.Fprintf(w, "\nmedian %.2fx (paper: 1.14x, largest for dmr and dt)\n", median(improvements))
	return nil
}

// profileRun runs app/variant at the given thread count with the locality
// tracer attached and returns the modeled memory report.
func (in *Inputs) profileRun(app, variant string, threads int) cachesim.Report {
	tr := cachesim.NewTracer(threads)
	in.RunOnce(app, variant, threads, tr)
	return tr.Analyze(fig11CacheLocs)
}

// fig11CacheLocs is the modeled cache capacity in abstract locations. It
// models the per-core cache hierarchy a task's working set lives in
// (thousands of graph nodes / triangles ≈ an L2): the non-deterministic
// scheduler's commit phase revisits its task's neighborhood while it is
// still resident, whereas under round-based scheduling the revisit happens
// after the rest of the window's inspect phase has swept through — once
// the window working set exceeds this capacity, every deterministic commit
// touch is a modeled DRAM request. Input-independent so the same number is
// comparable across apps and scales (the effect needs default scale or
// larger to appear, matching the paper's multi-megabyte windows).
const fig11CacheLocs = 4096

// Fig11 reproduces Figure 11: modeled DRAM requests per variant (reuse
// distances beyond the modeled cache; see internal/cachesim for the
// substitution of hardware counters).
func Fig11(in *Inputs, threads []int, w io.Writer) error {
	maxT := slices.Max(threads)
	fmt.Fprintf(w, "Figure 11: modeled DRAM requests (reuse distance > cache) at %d threads\n", maxT)
	fmt.Fprintf(w, "%-6s %-6s | %14s %14s %14s %12s\n",
		"app", "var", "accesses", "dram-reqs", "mean-dist", "dram-ratio")
	for _, app := range appNames(true) {
		for _, variant := range []string{"g-n", "g-d", "pbbs"} {
			if !in.Has(app, variant) {
				continue
			}
			// The bfs/mis pbbs variants use raw atomics, not mark words,
			// so the tracer sees nothing of them; the paper reads hardware
			// counters, which see everything.
			rep := in.profileRun(app, variant, maxT)
			if rep.Accesses == 0 {
				continue
			}
			ratio := 0.0
			if rep.Accesses > 0 {
				ratio = float64(rep.DRAMRequests()) / float64(rep.Accesses)
			}
			fmt.Fprintf(w, "%-6s %-6s | %14d %14d %14.0f %12.4f\n",
				app, variant, rep.Accesses, rep.DRAMRequests(), rep.MeanReuseDistance, ratio)
		}
	}
	fmt.Fprintln(w, "\nShape check: deterministic variants lose the intra-task locality that")
	fmt.Fprintln(w, "g-n gets for free (inspect/execute split stretches reuse distances).")
	return nil
}

// Fig12 reproduces Figure 12: how well the linear locality model explains
// the efficiency gap: eff_var = B0 + B1*(PC_ref/PC_var)*eff_ref, ref = g-n.
func Fig12(in *Inputs, threads []int, w io.Writer) error {
	fmt.Fprintln(w, "Figure 12: R^2 of the locality model eff_var = B0 + B1*(PC_gn/PC_var)*eff_gn")
	fmt.Fprintf(w, "%-6s | %8s %8s %6s\n", "app", "R2", "B1", "pts")
	maxT := slices.Max(threads)
	for _, app := range appNames(true) {
		// Modeled counters per variant (measured once at max threads;
		// the modeled counter is schedule-, not timing-, dependent).
		pc := map[string]float64{}
		variants := []string{"g-n", "g-d"}
		if in.Has(app, "pbbs") {
			variants = append(variants, "pbbs")
		}
		for _, v := range variants {
			pc[v] = float64(in.profileRun(app, v, maxT).DRAMRequests())
		}
		base := in.RunMedian(app, "seq", 1).Elapsed.Seconds()
		eff := func(variant string, t int) float64 {
			r := in.RunMedian(app, variant, t)
			return base / r.Elapsed.Seconds() / float64(t)
		}
		var xs, ys []float64
		for _, t := range threads {
			effRef := eff("g-n", t)
			for _, v := range variants[1:] {
				if pc[v] == 0 {
					continue
				}
				xs = append(xs, pc["g-n"]/pc[v]*effRef)
				ys = append(ys, eff(v, t))
			}
		}
		fit := linreg.OLS(xs, ys)
		fmt.Fprintf(w, "%-6s | %8.3f %8.3f %6d\n", app, fit.R2, fit.B1, fit.N)
	}
	fmt.Fprintln(w, "\nShape check: the locality-counter ratio explains most of the")
	fmt.Fprintln(w, "deterministic variants' efficiency loss (high R^2), as in the paper.")
	return nil
}

// PThreadBFS runs the pthread-style BFS (Figure 6's bfs-pt) on the shared
// bfs input.
func PThreadBFS(in *Inputs, threads int, rt *coredet.Runtime) {
	bfs.PThread(in.input("bfs").(*graph.CSR), 0, threads, rt)
}

// PThreadMIS runs the pthread-style MIS (Figure 6's mis-pt) on the shared
// graph input.
func PThreadMIS(in *Inputs, threads int, rt *coredet.Runtime) {
	mis.PThread(in.input("mis").(*graph.CSR), threads, rt)
}
