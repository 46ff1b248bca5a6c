// Benchmarks regenerating the paper's evaluation (§5), one family per
// figure/table, with Figure 10 as the §3.3 continuation ablation. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports, beyond ns/op, the figure's own metrics via
// ReportMetric: committed tasks/us and abort ratios (Figure 4), atomic
// updates/us (Figure 5), and so on. Inputs default to the small scale so
// the full suite completes quickly; set -benchscale=default or full for
// measurement runs.
package galois_test

import (
	"flag"
	"fmt"
	"sync"
	"testing"

	"galois"
	"galois/internal/apps/blackscholes"
	"galois/internal/apps/bodytrack"
	"galois/internal/apps/cavity"
	"galois/internal/apps/freqmine"
	"galois/internal/apps/mm"
	"galois/internal/apps/msf"
	"galois/internal/apps/sssp"
	"galois/internal/cachesim"
	"galois/internal/coredet"
	"galois/internal/graph"
	"galois/internal/harness"
	"galois/internal/para"
)

var benchScale = flag.String("benchscale", "small", "benchmark input scale: small|default|full")

var (
	inputsOnce sync.Once
	inputsVal  *harness.Inputs
)

func inputs(b *testing.B) *harness.Inputs {
	inputsOnce.Do(func() {
		sc, err := harness.ScaleByName(*benchScale)
		if err != nil {
			panic(err)
		}
		sc.Reps = 1
		inputsVal = harness.MakeInputs(sc)
	})
	return inputsVal
}

// benchRun runs one app/variant/threads cell b.N times on a reused engine
// (measured iterations share run state, the steady state a serving workload
// sees), reporting the paper's per-run metrics plus -benchmem allocations.
func benchRun(b *testing.B, app, variant string, threads int) {
	in := inputs(b)
	if variant != "seq" && variant != "pbbs" {
		eng := galois.NewEngine(galois.WithThreads(threads))
		defer eng.Close()
		in.Engine = eng
		defer func() { in.Engine = nil }()
		in.RunOnce(app, variant, threads, nil) // warm the engine, untimed
	}
	b.ReportAllocs()
	b.ResetTimer()
	var last harness.Run
	for i := 0; i < b.N; i++ {
		last = in.RunOnce(app, variant, threads, nil)
	}
	b.StopTimer()
	b.ReportMetric(last.Stats.CommitsPerMicro(), "tasks/us")
	b.ReportMetric(last.Stats.AbortRatio(), "abort-ratio")
	b.ReportMetric(last.Stats.AtomicsPerMicro(), "atomics/us")
	b.ReportMetric(float64(last.Stats.Rounds), "rounds")
}

// BenchmarkFig4And5Rates covers Figures 4 and 5: task and atomic-update
// rates per app and variant at one thread and at GOMAXPROCS.
func BenchmarkFig4And5Rates(b *testing.B) {
	maxT := para.DefaultThreads()
	for _, app := range harness.Apps {
		for _, variant := range []string{"g-n", "g-d", "pbbs"} {
			if !harness.HasVariant(app, variant) {
				continue
			}
			for _, threads := range []int{1, maxT} {
				b.Run(fmt.Sprintf("%s/%s/t%d", app, variant, threads), func(b *testing.B) {
					benchRun(b, app, variant, threads)
				})
			}
		}
	}
}

// BenchmarkFig6CoreDet covers Figure 6: each pthread-style program with
// and without CoreDet-style deterministic thread scheduling.
func BenchmarkFig6CoreDet(b *testing.B) {
	maxT := para.DefaultThreads()
	in := inputs(b)
	sc := harness.SmallScale()
	apps := map[string]func(threads int, rt *coredet.Runtime){
		"blackscholes": func(t int, rt *coredet.Runtime) {
			blackscholes.Run(blackscholes.GenPortfolio(sc.BSOptions, 1), sc.BSRounds, t, rt)
		},
		"bodytrack": func(t int, rt *coredet.Runtime) {
			bodytrack.Run(bodytrack.Config{Particles: sc.BTParticles, Frames: sc.BTFrames}, t, rt, 1)
		},
		"freqmine": func(t int, rt *coredet.Runtime) {
			cfg := freqmine.DefaultConfig()
			cfg.Transactions = sc.FMTxns
			freqmine.Run(cfg, freqmine.GenTransactions(cfg, 1), t, rt)
		},
		"dmr-pt": func(t int, rt *coredet.Runtime) {
			cavity.Run(cavity.DMRProfile(sc.CavityTasks), t, rt, 1)
		},
		"dt-pt": func(t int, rt *coredet.Runtime) {
			cavity.Run(cavity.DTProfile(sc.CavityTasks), t, rt, 1)
		},
		"bfs-pt": func(t int, rt *coredet.Runtime) {
			harness.PThreadBFS(in, t, rt)
		},
		"mis-pt": func(t int, rt *coredet.Runtime) {
			harness.PThreadMIS(in, t, rt)
		},
	}
	for _, name := range []string{"blackscholes", "bodytrack", "freqmine", "bfs-pt", "mis-pt", "dmr-pt", "dt-pt"} {
		run := apps[name]
		for _, mode := range []string{"plain", "coredet"} {
			b.Run(fmt.Sprintf("%s/%s/t%d", name, mode, maxT), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rt := coredet.New(mode == "coredet", 0)
					run(maxT, rt)
					b.ReportMetric(float64(rt.SyncOps()), "syncops")
				}
			})
		}
	}
}

// BenchmarkFig7Speedup covers Figures 7-9: every variant of every app at
// 1 thread and GOMAXPROCS (speedups are ratios of these timings).
func BenchmarkFig7Speedup(b *testing.B) {
	maxT := para.DefaultThreads()
	for _, app := range harness.Apps {
		for _, variant := range harness.Variants {
			if !harness.HasVariant(app, variant) {
				continue
			}
			threadSet := []int{1, maxT}
			if variant == "seq" {
				threadSet = []int{1}
			}
			for _, threads := range threadSet {
				b.Run(fmt.Sprintf("%s/%s/t%d", app, variant, threads), func(b *testing.B) {
					benchRun(b, app, variant, threads)
				})
			}
		}
	}
}

// BenchmarkFig10Continuation is the §3.3 continuation ablation: g-d versus
// g-dnc (baseline scheduler, commit-phase re-execution).
func BenchmarkFig10Continuation(b *testing.B) {
	maxT := para.DefaultThreads()
	for _, app := range harness.Apps {
		for _, variant := range []string{"g-d", "g-dnc"} {
			b.Run(fmt.Sprintf("%s/%s/t%d", app, variant, maxT), func(b *testing.B) {
				benchRun(b, app, variant, maxT)
			})
		}
	}
}

// BenchmarkFig11Locality runs the profiled variants through the
// reuse-distance model and reports modeled DRAM requests per million
// accesses (Figure 11's quantity, normalized).
func BenchmarkFig11Locality(b *testing.B) {
	maxT := para.DefaultThreads()
	in := inputs(b)
	for _, app := range harness.Apps {
		for _, variant := range []string{"g-n", "g-d"} {
			b.Run(fmt.Sprintf("%s/%s", app, variant), func(b *testing.B) {
				var rep cachesim.Report
				for i := 0; i < b.N; i++ {
					tr := cachesim.NewTracer(maxT)
					in.RunOnce(app, variant, maxT, tr)
					rep = tr.Analyze(0)
				}
				if rep.Accesses > 0 {
					b.ReportMetric(1e6*float64(rep.DRAMRequests())/float64(rep.Accesses), "dram/Maccess")
				}
			})
		}
	}
}

// BenchmarkExtensions covers the library extensions beyond the paper's
// benchmark set: maximal matching, Boruvka spanning forest, and SSSP (the
// OBIM priority worklist's showcase), each under both schedulers.
func BenchmarkExtensions(b *testing.B) {
	maxT := para.DefaultThreads()
	g := graph.Symmetrize(graph.RandomKOut(10_000, 5, 42))
	wg := graph.RandomWeighted(10_000, 4, 100, 42)
	edges := msf.RandomWeights(g, 1000, 7)

	b.Run(fmt.Sprintf("mm/g-n/t%d", maxT), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mm.Galois(g, galois.WithThreads(maxT))
		}
	})
	b.Run(fmt.Sprintf("mm/g-d/t%d", maxT), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mm.Galois(g, galois.WithThreads(maxT), galois.WithSched(galois.Deterministic))
		}
	})
	b.Run(fmt.Sprintf("mm/pbbs/t%d", maxT), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mm.PBBS(g, maxT)
		}
	})
	b.Run(fmt.Sprintf("msf/g-n/t%d", maxT), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			msf.Galois(g.N(), edges, galois.WithThreads(maxT))
		}
	})
	b.Run(fmt.Sprintf("msf/g-d/t%d", maxT), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			msf.Galois(g.N(), edges, galois.WithThreads(maxT), galois.WithSched(galois.Deterministic))
		}
	})
	b.Run(fmt.Sprintf("msf/pbbs/t%d", maxT), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			msf.PBBS(g.N(), edges, maxT)
		}
	})
	b.Run(fmt.Sprintf("sssp/obim/t%d", maxT), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sssp.Galois(wg, 0, sssp.DefaultOptions(100), galois.WithThreads(maxT))
		}
	})
	b.Run(fmt.Sprintf("sssp/fifo/t%d", maxT), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sssp.Galois(wg, 0, sssp.Options{}, galois.WithThreads(maxT))
		}
	})
	b.Run(fmt.Sprintf("sssp/g-d/t%d", maxT), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sssp.Galois(wg, 0, sssp.Options{}, galois.WithThreads(maxT), galois.WithSched(galois.Deterministic))
		}
	})
}
