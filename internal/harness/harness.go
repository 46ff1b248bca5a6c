// Package harness runs the paper's experiment matrix (§5): it generates
// the benchmark inputs, dispatches app × variant × thread-count runs, and
// renders each figure/table of the evaluation section. The cmd/repro
// binary and the repository's benchmarks are thin wrappers over it.
package harness

import (
	"fmt"
	"time"

	"galois"
	"galois/internal/apps/bfs"
	"galois/internal/apps/dmr"
	"galois/internal/apps/dt"
	"galois/internal/apps/mis"
	"galois/internal/apps/pfp"
	"galois/internal/cachesim"
	"galois/internal/geom"
	"galois/internal/graph"
	"galois/internal/inputs"
	"galois/internal/para"
	"galois/internal/stats"
)

// Scale sizes the benchmark inputs. The table lives in internal/inputs so
// the serving layer shares it; see inputs.Scale.
type Scale = inputs.Scale

// SmallScale is for tests and smoke runs.
func SmallScale() Scale { return inputs.SmallScale() }

// DefaultScale runs the matrix in minutes on a laptop-class machine.
func DefaultScale() Scale { return inputs.DefaultScale() }

// FullScale reproduces the paper's input sizes (§4.2). Budget accordingly.
func FullScale() Scale { return inputs.FullScale() }

// ScaleByName resolves small/default/full.
func ScaleByName(name string) (Scale, error) { return inputs.ScaleByName(name) }

// Apps is the irregular-benchmark list in presentation order.
var Apps = []string{"bfs", "dmr", "dt", "mis", "pfp"}

// Variants of the irregular apps.
var Variants = []string{"seq", "g-n", "g-d", "g-dnc", "pbbs"}

// Inputs holds the generated inputs for one scale, shared across runs.
// Median measurements are memoized so figures that revisit the same
// app/variant/threads cell (7, 9, 10, 12 overlap heavily) reuse them.
type Inputs struct {
	sc       Scale
	bfsGraph *graph.CSR
	dtPoints []geom.Point
	dmrPts   int
	pfpNet   *pfp.Network
	memo     map[string]Run

	// TraceSink, if non-nil, is attached to every Galois-variant run
	// dispatched through this Inputs. Sinks must be sized for the largest
	// thread count that will run. Tracing is non-perturbing (see
	// internal/obs), so measurements and fingerprints are unchanged.
	TraceSink galois.TraceSink
	// Metrics, if non-nil, is attached to every Galois-variant run.
	Metrics *galois.Metrics
	// Engine, if non-nil, supplies retained run state to every
	// Galois-variant run dispatched through this Inputs (galois.WithEngine).
	// Reuse changes neither outputs nor event sequences, only allocation
	// behavior; fingerprints are engine-invariant by construction (and
	// tested to be).
	Engine *galois.Engine
}

// MakeInputs generates all inputs for sc once, through the canonical
// derivations in internal/inputs — the same ones the job service uses, so
// harness runs and served jobs of the same (scale, seed) cell are
// input-identical and their fingerprints directly comparable.
func MakeInputs(sc Scale) *Inputs {
	return &Inputs{
		sc:       sc,
		bfsGraph: inputs.BFSGraph(sc.BFSNodes, sc.BFSDegree, sc.Seed),
		dtPoints: inputs.DTPoints(sc.DTPoints, sc.Seed),
		dmrPts:   sc.DMRPoints,
		pfpNet:   inputs.PFPNetwork(sc.PFPNodes, sc.PFPDegree, sc.Seed),
		memo:     make(map[string]Run),
	}
}

// Run is the result of one measured app run.
type Run struct {
	App, Variant string
	Threads      int
	Elapsed      time.Duration
	Stats        stats.Stats
	Fingerprint  uint64
}

// galoisOpts translates a variant name to scheduler options, attaching the
// Inputs' trace sink and metrics registry when present.
func (in *Inputs) galoisOpts(variant string, threads int, profile *cachesim.Tracer) []galois.Option {
	opts := []galois.Option{galois.WithThreads(threads)}
	switch variant {
	case "g-n":
	case "g-d":
		opts = append(opts, galois.WithSched(galois.Deterministic))
	case "g-dnc":
		opts = append(opts, galois.WithSched(galois.Deterministic), galois.WithoutContinuation())
	default:
		panic("harness: not a galois variant: " + variant)
	}
	if profile != nil {
		opts = append(opts, galois.WithProfile(profile))
	}
	if in.TraceSink != nil {
		opts = append(opts, galois.WithTrace(in.TraceSink))
	}
	if in.Metrics != nil {
		opts = append(opts, galois.WithMetrics(in.Metrics))
	}
	if in.Engine != nil {
		opts = append(opts, galois.WithEngine(in.Engine))
	}
	return opts
}

// RunOnce executes one app/variant/threads combination and returns the
// measurement. profile may be nil; when set, abstract-location accesses are
// traced for the §5.4 locality analysis (supported for the Galois variants
// of all apps and the PBBS variants of dt/dmr).
func (in *Inputs) RunOnce(app, variant string, threads int, profile *cachesim.Tracer) Run {
	r := Run{App: app, Variant: variant, Threads: threads}
	start := time.Now()
	switch app {
	case "bfs":
		var res *bfs.Result
		switch variant {
		case "seq":
			res = bfs.Seq(in.bfsGraph, 0)
		case "pbbs":
			res = bfs.PBBS(in.bfsGraph, 0, threads)
		default:
			res = bfs.Galois(in.bfsGraph, 0, in.galoisOpts(variant, threads, profile)...)
		}
		r.Stats = res.Stats
		r.Fingerprint = res.Fingerprint()
	case "mis":
		var res *mis.Result
		switch variant {
		case "seq":
			res = mis.Seq(in.bfsGraph)
		case "pbbs":
			res = mis.PBBS(in.bfsGraph, threads)
		default:
			res = mis.Galois(in.bfsGraph, in.galoisOpts(variant, threads, profile)...)
		}
		r.Stats = res.Stats
		r.Fingerprint = res.Fingerprint()
	case "dt":
		var res *dt.Result
		switch variant {
		case "seq":
			res = dt.Seq(in.dtPoints, in.sc.Seed+3)
		case "pbbs":
			res = dt.PBBS(in.dtPoints, in.sc.Seed+3, threads, 0, profile)
		default:
			res = dt.Galois(in.dtPoints, in.sc.Seed+3, in.galoisOpts(variant, threads, profile)...)
		}
		r.Stats = res.Stats
		r.Fingerprint = res.Fingerprint()
	case "dmr":
		q := dmr.DefaultQuality()
		root := dmr.MakeInput(in.dmrPts, in.sc.Seed+4)
		start = time.Now() // exclude input construction
		var res *dmr.Result
		switch variant {
		case "seq":
			res = dmr.Seq(root, q)
		case "pbbs":
			res = dmr.PBBS(root, q, threads, 0, profile)
		default:
			res = dmr.Galois(root, q, in.galoisOpts(variant, threads, profile)...)
		}
		r.Stats = res.Stats
		r.Fingerprint = res.Fingerprint()
	case "pfp":
		in.pfpNet.Reset()
		start = time.Now()
		var val int64
		var st stats.Stats
		switch variant {
		case "seq":
			val, st = pfp.Seq(in.pfpNet)
		case "pbbs":
			// The paper has no PBBS pfp variant (§4.1); callers
			// should not request one.
			panic("harness: pfp has no pbbs variant")
		default:
			val, st = pfp.Galois(in.pfpNet, in.galoisOpts(variant, threads, profile)...)
		}
		r.Stats = st
		r.Fingerprint = uint64(val)
	default:
		panic("harness: unknown app " + app)
	}
	r.Elapsed = time.Since(start)
	return r
}

// RunMedian repeats RunOnce sc.Reps times and returns the run with the
// median elapsed time. Results are memoized per (app, variant, threads);
// deterministic inputs make repeat measurements redundant across figures.
func (in *Inputs) RunMedian(app, variant string, threads int) Run {
	key := fmt.Sprintf("%s/%s/%d", app, variant, threads)
	if r, ok := in.memo[key]; ok {
		return r
	}
	reps := in.sc.Reps
	if reps < 1 {
		reps = 1
	}
	runs := make([]Run, reps)
	for i := range runs {
		runs[i] = in.RunOnce(app, variant, threads, nil)
	}
	// Median by elapsed time (insertion sort, reps is tiny).
	for i := 1; i < len(runs); i++ {
		v := runs[i]
		j := i - 1
		for j >= 0 && runs[j].Elapsed > v.Elapsed {
			runs[j+1] = runs[j]
			j--
		}
		runs[j+1] = v
	}
	med := runs[len(runs)/2]
	in.memo[key] = med
	return med
}

// HasVariant reports whether app has the given variant.
func HasVariant(app, variant string) bool {
	if app == "pfp" && variant == "pbbs" {
		return false
	}
	return true
}

// DefaultThreadSweep returns 1,2,4,...,GOMAXPROCS (always including the
// max even if not a power of two).
func DefaultThreadSweep() []int {
	maxT := para.DefaultThreads()
	var ts []int
	for t := 1; t < maxT; t *= 2 {
		ts = append(ts, t)
	}
	ts = append(ts, maxT)
	// Dedup in case max is a power of two.
	if len(ts) >= 2 && ts[len(ts)-1] == ts[len(ts)-2] {
		ts = ts[:len(ts)-1]
	}
	return ts
}
