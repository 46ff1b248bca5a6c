// Package harness runs the paper's experiment matrix (§5): it generates
// the benchmark inputs, dispatches app × variant × thread-count runs, and
// renders each figure/table of the evaluation section. The cmd/repro
// binary and the repository's benchmarks are thin wrappers over it.
package harness

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"galois"
	"galois/internal/cachesim"
	"galois/internal/catalog"
	"galois/internal/inputs"
	"galois/internal/para"
	"galois/internal/stats"
)

// Inputs holds the generated inputs for one scale, shared across runs.
// Median measurements are memoized so figures that revisit the same
// app/variant/threads cell (7, 9, 10, 12 overlap heavily) reuse them.
type Inputs struct {
	sc   inputs.Scale
	apps map[string]*catalog.App
	data map[string]any // input family -> built input
	memo map[string]Run

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

// MakeInputs builds every input family of the catalog for sc once, through
// the catalog's Build — the same derivations the job service uses, so
// harness runs and served jobs of the same (scale, seed) cell are
// input-identical and their fingerprints directly comparable.
func MakeInputs(sc inputs.Scale) *Inputs {
	in := &Inputs{sc: sc, apps: make(map[string]*catalog.App), data: make(map[string]any), memo: make(map[string]Run)}
	for _, app := range catalog.Apps() {
		in.apps[app.Name] = app
		if _, ok := in.data[app.Family]; !ok {
			in.data[app.Family] = app.Build(sc, sc.Seed)
		}
	}
	return in
}

// input returns the built input of app's family.
func (in *Inputs) input(app string) any { return in.data[in.apps[app].Family] }

// appNames returns the catalog's app names in catalog order; paperOnly
// keeps the paper's five figure apps, which Figures 4-12 iterate.
func appNames(paperOnly bool) []string {
	var names []string
	for _, app := range catalog.Apps() {
		if app.Paper || !paperOnly {
			names = append(names, app.Name)
		}
	}
	return names
}

// Has reports whether app is in the catalog and has the given variant.
func (in *Inputs) Has(app, variant string) bool {
	a := in.apps[app]
	return a != nil && a.Has(variant)
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
// of all apps and the PBBS variants of dt/dmr). An Exclusive input is reset
// before the clock starts, so neither dmr's mesh build nor pfp's reset is
// part of Elapsed.
func (in *Inputs) RunOnce(app, variant string, threads int, profile *cachesim.Tracer) Run {
	if !in.Has(app, variant) {
		panic("harness: no cell " + app + "/" + variant)
	}
	a, data := in.apps[app], in.input(app)
	if a.Reset != nil {
		a.Reset(data)
	}
	r := Run{App: app, Variant: variant, Threads: threads}
	start := time.Now()
	switch variant {
	case "seq":
		r.Fingerprint, r.Stats = a.Seq(data)
	case "pbbs":
		r.Fingerprint, r.Stats = a.PBBS(data, threads, profile)
	default:
		r.Fingerprint, r.Stats = a.Run(data, in.galoisOpts(variant, threads, profile))
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
	runs := make([]Run, max(in.sc.Reps, 1))
	for i := range runs {
		runs[i] = in.RunOnce(app, variant, threads, nil)
	}
	slices.SortStableFunc(runs, func(a, b Run) int { return cmp.Compare(a.Elapsed, b.Elapsed) })
	med := runs[len(runs)/2]
	in.memo[key] = med
	return med
}

// DefaultThreadSweep returns 1,2,4,...,GOMAXPROCS (always including the
// max even if not a power of two).
func DefaultThreadSweep() []int {
	maxT := para.DefaultThreads()
	var ts []int
	for t := 1; t < maxT; t *= 2 {
		ts = append(ts, t)
	}
	return append(ts, maxT)
}
