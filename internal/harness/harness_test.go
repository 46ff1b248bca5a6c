package harness

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"galois"
	"galois/internal/apps/bfs"
	"galois/internal/apps/dmr"
	"galois/internal/apps/dt"
	"galois/internal/apps/mis"
	"galois/internal/apps/mm"
	"galois/internal/apps/sssp"
	"galois/internal/catalog"
	"galois/internal/graph"
	"galois/internal/inputs"
	"galois/internal/obs"
	"galois/internal/stats"
)

func smallInputs() *Inputs { return MakeInputs(inputs.SmallScale()) }

func TestRunOnceAllCombos(t *testing.T) {
	in := smallInputs()
	for _, app := range appNames(false) {
		for _, variant := range catalog.Variants {
			if !in.Has(app, variant) {
				continue
			}
			r := in.RunOnce(app, variant, 2, nil)
			if r.Stats.Commits == 0 {
				t.Fatalf("%s/%s: zero commits", app, variant)
			}
			if r.Elapsed <= 0 {
				t.Fatalf("%s/%s: no elapsed time", app, variant)
			}
		}
	}
}

func TestDeterministicVariantsAgreeAcrossThreads(t *testing.T) {
	in := smallInputs()
	for _, app := range appNames(false) {
		for _, variant := range []string{"g-d", "pbbs"} {
			if !in.Has(app, variant) {
				continue
			}
			a := in.RunOnce(app, variant, 1, nil)
			b := in.RunOnce(app, variant, 4, nil)
			if a.Fingerprint != b.Fingerprint {
				t.Fatalf("%s/%s: fingerprint differs across thread counts", app, variant)
			}
		}
	}
}

// scheduleGolden holds one line per app × deterministic variant at small
// scale: the output fingerprint and every schedule-bearing count of the
// run. All but the last column are the same at every thread count; barrier
// crossings depend on which rounds run in parallel, so there is one per
// count. A change that moves a line has changed the schedule (or the
// fingerprint), which is deliberate or a bug, never noise; -update rewrites
// the file, and its diff is then the before/after schedule dump.
const (
	scheduleGolden = "testdata/schedule_small.golden"
	scheduleHeader = "# app variant fingerprint commits aborts pushes inspects rounds window_sum barriers@t1,t2,t4,t8"
)

var update = flag.Bool("update", false, "rewrite "+scheduleGolden+" from this run")

// scheduleCounts renders the thread-independent counts of a run.
func scheduleCounts(st stats.Stats) string {
	return fmt.Sprintf("%d %d %d %d %d %d", st.Commits, st.Aborts, st.Pushes, st.Inspects, st.Rounds, st.WindowSum)
}

// TestPortabilityThreadSweep is the paper's portability claim (§1, §5.1)
// as an executable regression: under the DIG scheduler — with and without
// the continuation optimization — every registered app commits a
// byte-identical output fingerprint and identical schedule counts at 1, 2,
// 4 and 8 threads, attaching a trace sink (plus a metrics registry) leaves
// every one of them unchanged — observability is non-perturbing — and the
// whole line equals the committed one, so a schedule cannot move between
// commits unnoticed either.
func TestPortabilityThreadSweep(t *testing.T) {
	// A run's workers are capped at GOMAXPROCS (core.RunOn); raise it so the
	// 4- and 8-thread rows run 4 and 8 workers on any host and the barrier
	// column does not depend on the machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	in := smallInputs()
	threads := []int{1, 2, 4, 8}
	// sweep runs one cell at every thread count and returns its golden line.
	sweep := func(app, variant string) string {
		var first Run
		barriers := make([]string, len(threads))
		for i, th := range threads {
			r := in.RunOnce(app, variant, th, nil)
			barriers[i] = strconv.FormatUint(r.Stats.Barriers, 10)
			if i == 0 {
				first = r
				continue
			}
			if r.Fingerprint != first.Fingerprint {
				t.Errorf("%s/%s: fingerprint %#x at %d threads, want %#x (as at %d threads)",
					app, variant, r.Fingerprint, th, first.Fingerprint, threads[0])
			}
			if got, want := scheduleCounts(r.Stats), scheduleCounts(first.Stats); got != want {
				t.Errorf("%s/%s: counts %q at %d threads, want %q (as at %d threads)",
					app, variant, got, th, want, threads[0])
			}
		}
		return fmt.Sprintf("%s %s %016x %s %s", app, variant,
			first.Fingerprint, scheduleCounts(first.Stats), strings.Join(barriers, ","))
	}

	golden := map[string]string{} // "app variant" -> line
	if data, err := os.ReadFile(scheduleGolden); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[0] != "#" {
				golden[f[0]+" "+f[1]] = line
			}
		}
	} else if !*update {
		t.Fatal(err)
	}

	var lines []string
	for _, app := range appNames(false) {
		for _, variant := range []string{"g-d", "g-dnc"} {
			line := sweep(app, variant)
			lines = append(lines, line)
			// Traced runs must commit the identical line.
			in.TraceSink = galois.NewTrace(8)
			in.Metrics = galois.NewMetrics(8)
			if traced := sweep(app, variant); traced != line {
				t.Errorf("%s/%s: tracing perturbed the run:\n%s\ntraced   %s\nuntraced %s",
					app, variant, scheduleHeader, traced, line)
			}
			in.TraceSink, in.Metrics = nil, nil
			if want := golden[app+" "+variant]; want != line && !*update {
				t.Errorf("%s/%s: schedule moved (go test ./internal/harness -run TestPortabilityThreadSweep -update, if meant):\n%s\ngot  %s\nwant %s",
					app, variant, scheduleHeader, line, want)
			}
			delete(golden, app+" "+variant)
		}
	}
	if *update {
		sort.Strings(lines)
		out := scheduleHeader + "\n" + strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(scheduleGolden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for cell := range golden {
		t.Errorf("%s names %q, which the sweep does not run", scheduleGolden, cell)
	}
}

// TestTraceEventSequenceThreadInvariant is the trace-level portability
// claim: for a deterministic run, the canonical (timestamp-stripped) event
// sequence — generations, rounds, window decisions — is identical at 1, 2,
// 4 and 8 threads, because every structural event is a pure function of
// the schedule and the schedule is a pure function of the input.
func TestTraceEventSequenceThreadInvariant(t *testing.T) {
	in := smallInputs()
	for _, app := range appNames(false) {
		for _, variant := range []string{"g-d", "g-dnc"} {
			var want []string
			for _, th := range []int{1, 2, 4, 8} {
				tr := galois.NewTrace(th)
				in.TraceSink = tr
				r := in.RunOnce(app, variant, th, nil)
				in.TraceSink = nil
				got := tr.CanonicalLines()
				// Every round reports its phase durations: exactly one
				// phases event per round, in canonical (duration-stripped)
				// form so the sequence stays thread-invariant.
				phases := 0
				for _, line := range got {
					if strings.HasPrefix(line, "phases ") {
						phases++
					}
				}
				if phases != int(r.Stats.Rounds) {
					t.Errorf("%s/%s t%d: %d phases events for %d rounds",
						app, variant, th, phases, r.Stats.Rounds)
				}
				if want == nil {
					want = got
					if len(want) == 0 {
						t.Fatalf("%s/%s: traced run emitted no events", app, variant)
					}
					continue
				}
				if len(got) != len(want) {
					t.Errorf("%s/%s: %d events at %d threads, want %d", app, variant, len(got), th, len(want))
					continue
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%s/%s: event %d at %d threads = %q, want %q",
							app, variant, i, th, got[i], want[i])
						break
					}
				}
			}
		}
	}
}

func TestSemanticAgreementAcrossVariants(t *testing.T) {
	// For confluent apps (bfs and sssp distances, the dt mesh, the msf
	// forest — its edge keys are unique — and the pfp flow value; mis/dmr
	// are validity-checked elsewhere) the seq fingerprint is the ground
	// truth all variants must hit.
	in := smallInputs()
	for _, app := range []string{"bfs", "dt", "msf", "pfp", "sssp"} {
		want := in.RunOnce(app, "seq", 1, nil).Fingerprint
		for _, variant := range []string{"g-n", "g-d", "g-dnc", "pbbs"} {
			if !in.Has(app, variant) {
				continue
			}
			// bfs pbbs fingerprints include the parent tree, which
			// seq does not compute; skip that one comparison.
			if app == "bfs" && variant == "pbbs" {
				continue
			}
			got := in.RunOnce(app, variant, 4, nil).Fingerprint
			if got != want {
				t.Fatalf("%s/%s: fingerprint %x != seq %x", app, variant, got, want)
			}
		}
	}
}

func TestFiguresRenderAtSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("figure matrix is slow")
	}
	in := smallInputs()
	threads := []int{1, 2}
	for fig := 4; fig <= 12; fig++ {
		var sb strings.Builder
		if err := Figure(fig, in, threads, &sb); err != nil {
			t.Fatalf("figure %d: %v", fig, err)
		}
		if !strings.Contains(sb.String(), "Figure") {
			t.Fatalf("figure %d produced no output", fig)
		}
	}
}

func TestFigureRejectsUnknown(t *testing.T) {
	in := smallInputs()
	if err := Figure(3, in, []int{1}, &strings.Builder{}); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestDefaultThreadSweep(t *testing.T) {
	ts := DefaultThreadSweep()
	if len(ts) == 0 || ts[0] != 1 {
		t.Fatalf("sweep = %v", ts)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			t.Fatalf("sweep not increasing: %v", ts)
		}
	}
}

func TestWindowTraceRenders(t *testing.T) {
	in := smallInputs()
	tr := galois.NewTrace(2)
	var sb, diag strings.Builder
	if err := WindowTrace(in, 2, tr, &sb, &diag); err != nil {
		t.Fatal(err)
	}
	for _, app := range appNames(false) {
		if !strings.Contains(sb.String(), app+":") {
			t.Fatalf("window trace missing %s", app)
		}
	}
	// The figure table and the progress diagnostics are separate streams.
	if strings.Contains(sb.String(), "tracing ") {
		t.Fatal("diagnostics leaked into the figure table")
	}
	if !strings.Contains(diag.String(), "tracing ") {
		t.Fatal("no progress diagnostics emitted")
	}
	// The sink accumulated all five app runs and exports valid Chrome JSON.
	if got := len(tr.Rounds()); got == 0 {
		t.Fatal("sink captured no rounds")
	}
	var js strings.Builder
	if err := tr.WriteChromeTrace(&js); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateChromeTrace([]byte(js.String())); err != nil {
		t.Fatalf("window-trace chrome export invalid: %v", err)
	}
}

func TestExtensionsRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("extensions comparison is slow")
	}
	in := smallInputs()
	var sb strings.Builder
	if err := Extensions(in, 2, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"maximal matching", "boruvka", "sssp"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("extensions output missing %q", want)
		}
	}
}

// TestEngineReuseFingerprints is the harness-level engine invariant: for
// every app, deterministic runs that reuse one engine (three in a row, so
// the second and third hit fully warm state) commit fingerprints
// byte-identical to a fresh ForEach at every thread count, with and
// without the continuation optimization. The third run is on a scrubbed
// engine: what Scrub zeroes, no later run may need.
func TestEngineReuseFingerprints(t *testing.T) {
	in := smallInputs()
	for _, app := range appNames(false) {
		for _, variant := range []string{"g-d", "g-dnc"} {
			for _, th := range []int{1, 2, 4, 8} {
				in.Engine = nil
				want := in.RunOnce(app, variant, th, nil).Fingerprint
				eng := galois.NewEngine(galois.WithThreads(th))
				in.Engine = eng
				for run := 0; run < 3; run++ {
					if run == 2 {
						eng.Scrub()
					}
					got := in.RunOnce(app, variant, th, nil).Fingerprint
					if got != want {
						t.Errorf("%s/%s t%d run %d: engine fingerprint %#x != fresh %#x",
							app, variant, th, run, got, want)
					}
				}
				eng.Close()
				in.Engine = nil
			}
		}
	}
}

// measureAllocs runs fn reps times and returns its mean heap objects
// allocated per run, from runtime.ReadMemStats deltas. Mallocs is cumulative
// and GC-independent, so the measurement needs no GC coordination; it does
// assume no unrelated goroutines are allocating.
func measureAllocs(reps int, fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(reps)
}

// TestEngineSteadyStateAllocs checks the allocation payoff end-to-end, on a
// warm engine-reused deterministic run of a real app.
//
// Ceiling: bfs, mis, sssp and mm build their commit handlers once per loop
// and find the task through Ctx.Item, so neither the scheduler nor the
// operator allocates per task, and the scheduler allocates nothing per
// round: a warm run allocates a constant — the app's node and result
// arrays, its handler and body closures, the engine's few run objects —
// whatever the task count. The ceiling is that constant measured on small
// inputs, with slack; one object per commit (10k+) or per round (115 to
// 1449) trips it.
//
// Generation boundary: bfs and sssp push children, and a warm engine forms
// each next generation in engine storage — the children are concatenated
// by parent slot into a retained buffer, with no sort and no goroutine —
// so their ceiling is the lower boundaryCeiling: above the last two rows
// below with slack, and below the row before them, whose boundary sorted
// the children and forked above 8 192 of them.
//
// Payoff: a fresh run allocates at least Pushes/2 objects more than the
// engine run — the children buffers a cold arena hands to pushing tasks.
// mis and mm push nothing, so for them this only says reuse is no worse.
//
// Measured engine allocs/run (small inputs, 2 threads; the mode of 25
// processes, of 6 for "children read by slot", whose maximum follows it;
// the first run of a process reads up to 20 more):
//
//	                         bfs    mis   sssp     mm
//	inspects               23457  23260  40128 112743
//	rounds                   575    493   1449    115
//	closure per commit     20001  23266  49142  10292
//	handler built once        25      8     50     34
//	children read by slot      8      8     10     34
//	  (max of 6 processes)     9     13     12     37
//
// dt and dmr allocate in the operator — the new elements per commit (dt
// also one association array) — so their ceiling is objects per inspect,
// set just above what the mesh kernel reads (small inputs, 2 threads; dt
// 5723 inspects, dmr 18073):
//
//	                          dt engine  per inspect  dmr engine  per inspect
//	map star, regrown slices     123737        21.62      219191        12.13
//	endpoint star, inline         60668        10.60       79500         4.40
//	created in the Cavity,        39301         6.87       71024         3.93
//	  one assoc array, one
//	  Cavity per refinement
//	Cavity in the task's plan,    27928         4.88       49397         2.73
//	  handler built once
//
// One more object per commit — a Cavity, a commit closure, a map header, a
// created slice, a regrown Members or association list — reads 5.58 for dt
// and 3.60 for dmr, over both ceilings.
//
// The g-n leg runs bfs and mis on a warm engine under the speculative
// scheduler, whose retained worklist refills the chunks it drained: one
// chunk per 64 pushes or seeded tasks (over 300 a run) trips the ceiling.
func TestEngineSteadyStateAllocs(t *testing.T) {
	const ceiling, boundaryCeiling = 96, 16
	in := smallInputs()
	g := in.input("bfs").(*graph.CSR)
	sg := inputs.SSSPGraph(in.sc.SSSPNodes, in.sc.SSSPDegree, in.sc.SSSPMaxW, in.sc.Seed)
	apps := []struct {
		app    string
		pushes bool
		run    func(opts ...galois.Option) stats.Stats
	}{
		{"bfs", true, func(opts ...galois.Option) stats.Stats { return bfs.Galois(g, 0, opts...).Stats }},
		{"mis", false, func(opts ...galois.Option) stats.Stats { return mis.Galois(g, opts...).Stats }},
		{"sssp", true, func(opts ...galois.Option) stats.Stats {
			return sssp.Galois(sg, 0, sssp.DefaultOptions(in.sc.SSSPMaxW), opts...).Stats
		}},
		{"mm", false, func(opts ...galois.Option) stats.Stats { return mm.Galois(g, opts...).Stats }},
	}
	for _, c := range apps {
		det := []galois.Option{galois.WithSched(galois.Deterministic), galois.WithThreads(2)}
		c.run(det...) // warm app-side caches
		freshAllocs := measureAllocs(3, func() { c.run(det...) })

		eng := galois.NewEngine(galois.WithThreads(2))
		det = append(det, galois.WithEngine(eng))
		c.run(det...) // warm the engine
		st := c.run(det...)
		engineAllocs := measureAllocs(3, func() { c.run(det...) })
		eng.Close()

		if engineAllocs > ceiling {
			t.Errorf("%s: engine run allocates %d objects, over %d — something allocates per task or per round (%d inspects, %d rounds)",
				c.app, engineAllocs, ceiling, st.Inspects, st.Rounds)
		} else if c.pushes && engineAllocs > boundaryCeiling {
			t.Errorf("%s: engine run allocates %d objects, over %d — forming a generation from its children allocates (%d rounds, %d pushes)",
				c.app, engineAllocs, boundaryCeiling, st.Rounds, st.Pushes)
		}
		if engineAllocs+st.Pushes/2 > freshAllocs {
			t.Errorf("%s: engine run allocates %d objects vs %d fresh — reuse saves less than half of %d pushes",
				c.app, engineAllocs, freshAllocs, st.Pushes)
		}
		t.Logf("%s: allocs/run fresh=%d engine=%d inspects=%d rounds=%d pushes=%d", c.app, freshAllocs, engineAllocs, st.Inspects, st.Rounds, st.Pushes)
	}

	// g-n: the speculative scheduler keeps the engine's worklist and the
	// chunks its pops drained, so a warm bfs (FIFO) or mis (LIFO) run
	// allocates a constant as well, not one chunk per 64 pushes. How full
	// each worker's queue gets is up to the schedule, so a run can need a
	// few chunks more than the runs before it left behind.
	for _, c := range apps[:2] { // bfs, mis
		eng := galois.NewEngine(galois.WithThreads(2))
		nondet := []galois.Option{galois.WithSched(galois.NonDeterministic), galois.WithThreads(2), galois.WithEngine(eng)}
		for i := 0; i < 4; i++ {
			c.run(nondet...) // warm the engine
		}
		st := c.run(nondet...)
		engineAllocs := measureAllocs(3, func() { c.run(nondet...) })
		eng.Close()
		if engineAllocs > ceiling {
			t.Errorf("%s g-n: engine run allocates %d objects, over %d — the worklist allocates chunks every run (%d commits, %d pushes)",
				c.app, engineAllocs, ceiling, st.Commits, st.Pushes)
		}
		t.Logf("%s g-n: allocs/run engine=%d commits=%d pushes=%d", c.app, engineAllocs, st.Commits, st.Pushes)
	}

	eng := galois.NewEngine(galois.WithThreads(2))
	defer eng.Close()
	opts := []galois.Option{galois.WithSched(galois.Deterministic), galois.WithThreads(2), galois.WithEngine(eng)}
	pts := inputs.DTPoints(in.sc.DTPoints, in.sc.Seed)
	for _, c := range []struct {
		app        string
		perInspect float64
	}{{"dt", 5.25}, {"dmr", 3.0}} {
		run := func() (allocs uint64, st stats.Stats) {
			job := func() { st = dt.Galois(pts, in.sc.Seed+3, opts...).Stats }
			if c.app == "dmr" {
				root := inputs.DMRMesh(in.sc.DMRPoints, in.sc.Seed) // refined in place: one per run, not measured
				job = func() { st = dmr.Galois(root, dmr.DefaultQuality(), opts...).Stats }
			}
			allocs = measureAllocs(1, job)
			return allocs, st
		}
		run() // warm the engine
		engineAllocs, st := run()
		got := float64(engineAllocs) / float64(st.Inspects)
		if got > c.perInspect {
			t.Errorf("%s: engine run allocates %d objects, %.2f per inspect, over %.2f — the mesh kernel allocates more than what it creates",
				c.app, engineAllocs, got, c.perInspect)
		}
		t.Logf("%s: allocs/run engine=%d inspects=%d commits=%d (%.2f per inspect)", c.app, engineAllocs, st.Inspects, st.Commits, got)
	}
}

// TestBarrierAndPhaseCountersConsistent: a round is reported once, as one
// stats.Round, and its three consumers — stats.Collector, the trace and the
// metrics registry — must agree on it, round by round. For every app ×
// {g-d, g-dnc} × one and two threads, folding Trace.Rounds() reproduces the
// run's Stats (rounds, window sum, commits, aborts, barriers) and the
// registry's per-round instruments; every record partitions its window into
// committed and failed, and within a generation each round starts from the
// window size the previous one's update left. Stats.Barriers is nonzero and
// the same on a second run. Phase wall-time columns must be populated (the
// round loop always stamps them) and must sum to no more than the run's wall
// time. None of this instrumentation may perturb the committed fingerprint —
// the runs here are compared against an uninstrumented baseline — and
// publishing para.Barrier's wait counters (metrics attached or not) may not
// move the canonical event sequence either. Those counters depend on the
// machine and the moment, so they are bounded here, not pinned, and must
// never surface in the Stats JSON a receipt is built from.
func TestBarrierAndPhaseCountersConsistent(t *testing.T) {
	in := smallInputs()
	type cell struct {
		app, variant string
		threads      int
	}
	var cells []cell
	for _, app := range appNames(false) {
		for _, variant := range []string{"g-d", "g-dnc"} {
			cells = append(cells, cell{app, variant, 1}, cell{app, variant, 2})
		}
	}
	for _, c := range cells {
		app := fmt.Sprintf("%s/%s/t%d", c.app, c.variant, c.threads)
		base := in.RunOnce(c.app, c.variant, c.threads, nil)
		reg := galois.NewMetrics(2)
		tr := galois.NewTrace(2)
		in.Metrics, in.TraceSink = reg, tr
		r1 := in.RunOnce(c.app, c.variant, c.threads, nil)
		trOff := galois.NewTrace(2)
		in.Metrics, in.TraceSink = nil, trOff
		r2 := in.RunOnce(c.app, c.variant, c.threads, nil)
		in.TraceSink = nil

		if r1.Fingerprint != base.Fingerprint {
			t.Errorf("%s: instrumented fingerprint %#x != baseline %#x", app, r1.Fingerprint, base.Fingerprint)
		}
		if r2.Fingerprint != base.Fingerprint || !slices.Equal(tr.CanonicalLines(), trOff.CanonicalLines()) {
			t.Errorf("%s: barrier counters on vs off moved the fingerprint or the canonical sequence", app)
		}
		if parks := reg.Counter("galois_barrier_parks_total").Value(); parks > r1.Stats.Barriers {
			t.Errorf("%s: %d parks over %d crossings at 2 threads (one waiter each)", app, parks, r1.Stats.Barriers)
		}
		js, err := json.Marshal(r1.Stats)
		if low := strings.ToLower(string(js)); err != nil || strings.Contains(low, "park") || strings.Contains(low, "wait") {
			t.Errorf("%s: barrier wait counters leaked into stats JSON (err %v): %s", app, err, js)
		}
		if r1.Stats.Barriers == 0 {
			t.Fatalf("%s: zero barrier crossings recorded", app)
		}
		if r1.Stats.Barriers != r2.Stats.Barriers {
			t.Errorf("%s: barrier count not deterministic: %d vs %d", app, r1.Stats.Barriers, r2.Stats.Barriers)
		}

		// The trace's records, folded the way each other consumer folds them.
		type totals struct{ rounds, windowSum, commits, aborts, barriers uint64 }
		var fold totals
		committed := reg.Histogram("round.committed", nil)
		failed := reg.Histogram("round.failed", nil)
		want := galois.NewMetrics(1)
		wantCommitted := want.Histogram("committed", committed.Bounds())
		wantFailed := want.Histogram("failed", failed.Bounds())
		var prev stats.Round
		for i, rec := range tr.Rounds() {
			if rec.Window != rec.Committed+rec.Failed {
				t.Errorf("%s: round %d attempted %d, committed %d + failed %d", app, i, rec.Window, rec.Committed, rec.Failed)
			}
			if i > 0 && rec.Gen == prev.Gen && rec.Round == prev.Round+1 && rec.WindowBefore != prev.WindowAfter {
				t.Errorf("%s: round %d starts from window %d, the previous update left %d", app, i, rec.WindowBefore, prev.WindowAfter)
			}
			prev = rec
			fold.rounds++
			fold.windowSum += uint64(rec.Window)
			fold.commits += uint64(rec.Committed)
			fold.aborts += uint64(rec.Failed)
			fold.barriers += rec.Barriers
			wantCommitted.Observe(0, int64(rec.Committed))
			wantFailed.Observe(0, int64(rec.Failed))
		}
		st := r1.Stats
		if got := (totals{st.Rounds, st.WindowSum, st.Commits, st.Aborts, st.Barriers}); fold != got {
			t.Errorf("%s: trace folds to %+v, stats say %+v", app, fold, got)
		}
		if n := reg.Counter("round.barriers").Value(); n != fold.barriers {
			t.Errorf("%s: round.barriers counter %d, trace %d", app, n, fold.barriers)
		}
		if !slices.Equal(committed.Counts(), wantCommitted.Counts()) || !slices.Equal(failed.Counts(), wantFailed.Counts()) {
			t.Errorf("%s: round.committed %v / round.failed %v, trace folds to %v / %v", app,
				committed.Counts(), failed.Counts(), wantCommitted.Counts(), wantFailed.Counts())
		}
		phases := r1.Stats.PhaseInspectNS + r1.Stats.PhaseExecuteNS + r1.Stats.PhaseCoordinateNS
		if r1.Stats.PhaseInspectNS <= 0 || r1.Stats.PhaseExecuteNS <= 0 || r1.Stats.PhaseCoordinateNS <= 0 {
			t.Errorf("%s: phase columns not populated: %+v", app, r1.Stats)
		}
		if phases > r1.Elapsed.Nanoseconds() {
			t.Errorf("%s: phase sum %dns exceeds wall %dns", app, phases, r1.Elapsed.Nanoseconds())
		}
	}
}
