package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
)

// runEnv is what one workload run is given: the driver's arguments plus the
// host sizing derived from them.
type runEnv struct {
	seed    uint64
	seconds float64
	trace   bool
	// smoke shrinks inputs and windows to a few ops per cell, for the unit
	// test that drives all five workloads; its numbers mean nothing.
	smoke bool
	// threads is P = min(nproc, 4): the thread count of in-process ops and
	// the number of closed-loop clients of serving workloads.
	threads int
	outDir  string
	log     io.Writer
}

func hostThreads() int { return min(runtime.NumCPU(), 4) }

// setupReps is how many times a run sets up from scratch; setup_s is the
// median, so one slow start does not decide it. The last set-up is the one
// the timed window uses.
func (e *runEnv) setupReps() int {
	if e.smoke || e.trace {
		return 1
	}
	return 3
}

// warmups is the number of untimed ops per cell before the timed window;
// their time counts in setup_s.
func (e *runEnv) warmups() int {
	if e.smoke {
		return 1
	}
	return 2
}

// metricValue is one reported metric. Q carries the within-run sample count
// and quartiles where the metric is a summary of repeated samples.
type metricValue struct {
	Name  string
	Unit  string
	Value float64
	Q     *quartiles
}

// cellSummary is the latency of one (kind, variant) cell in a run.
type cellSummary struct {
	Name string
	quartiles
	Tail float64
}

// runResult is the outcome of one workload run, traced or not.
type runResult struct {
	Workload  string
	Trace     bool
	Attempted int
	Failed    int
	Metrics   []metricValue
	Cells     []cellSummary
	Failures  []string
}

// correct: every op attempted, warm-ups and replays included, was carried
// to a checked output.
func (r *runResult) correct() bool { return r.Failed == 0 }

// fail records one failed op, keeping the first few messages for diagnosis.
func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// set stores the metrics named by defs from vals, in catalog order, so a run
// always reports every metric of its pass — a layer it does not exercise
// reads 0.
func (r *runResult) set(defs []metricDef, vals map[string]float64, qs map[string]quartiles) {
	for _, d := range defs {
		mv := metricValue{Name: d.Name, Unit: d.Unit, Value: vals[d.Name]}
		if q, ok := qs[d.Name]; ok {
			q := q
			mv.Q = &q
		}
		r.Metrics = append(r.Metrics, mv)
	}
}

// print writes the human-readable table: every metric by name with unit,
// sample count and quartiles.
func (r *runResult) print(w io.Writer) {
	pass := "end-to-end (tracing off)"
	if r.Trace {
		pass = "per-layer (traced pass)"
	}
	fmt.Fprintf(w, "== %s — %s: attempted %d, failed %d, correct %v\n", r.Workload, pass, r.Attempted, r.Failed, r.correct())
	for _, c := range r.Cells {
		fmt.Fprintf(w, "   cell %-10s n=%-6d q1=%.4g median=%.4g q3=%.4g tail=%.4g ms\n", c.Name, c.N, c.Q1, c.Median, c.Q3, c.Tail)
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "   %-28s %14.6g %-6s", m.Name, m.Value, m.Unit)
		if m.Q != nil {
			fmt.Fprintf(w, " n=%d q1=%.6g median=%.6g q3=%.6g", m.Q.N, m.Q.Q1, m.Q.Median, m.Q.Q3)
		}
		fmt.Fprintln(w)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAIL %s\n", f)
	}
}

// resultLine is the one JSON object the driver reads from the last line of
// standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) resultLine() string {
	line := resultLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]lineMetric, len(r.Metrics))}
	for _, m := range r.Metrics {
		line.Metrics[m.Name] = lineMetric{m.Value, m.Unit}
	}
	data, err := json.Marshal(line) // encoding/json emits map keys sorted
	if err != nil {
		panic(err) // plain numbers and strings: cannot fail
	}
	return string(data)
}

// cellSamples is the timed latencies (ms) of one cell. When the cell's ops
// rotate through several inputs, variant[i] says which one op i ran on.
type cellSamples struct {
	name    string
	ms      []float64
	variant []int
}

// groups splits the cell's samples by input variant, each group sorted.
func (c cellSamples) groups() [][]float64 {
	var out [][]float64
	for i, x := range c.ms {
		v := 0
		if c.variant != nil {
			v = c.variant[i]
		}
		for len(out) <= v {
			out = append(out, nil)
		}
		out[v] = append(out[v], x)
	}
	for _, g := range out {
		sort.Float64s(g)
	}
	return out
}

// latencyMetrics folds per-cell latencies into op_ms and op_tail_ms: the
// geometric mean over cells of the per-cell median and of the per-cell
// tailQ-quantile. Never a pooled median: cells differ by 50x. For the same
// reason a cell that rotates through several inputs takes each quantile per
// input and then their geometric mean: a median over a mixture of inputs
// that differ by 20% jumps between them from run to run. The returned
// quartiles are geomeans of the per-cell quartiles, N the smallest cell.
func latencyMetrics(cells []cellSamples, tailQ float64) (opMS, tailMS float64, q quartiles, sums []cellSummary) {
	var q1s, meds, q3s, tails []float64
	q.N = -1
	for _, c := range cells {
		var g1, gm, g3, gt []float64
		for _, g := range c.groups() {
			if len(g) > 0 {
				g1, gm, g3, gt = append(g1, quantile(g, 0.25)), append(gm, quantile(g, 0.5)), append(g3, quantile(g, 0.75)), append(gt, quantile(g, tailQ))
			}
		}
		s := cellSummary{Name: c.name, Tail: geomean(gt),
			quartiles: quartiles{N: len(c.ms), Q1: geomean(g1), Median: geomean(gm), Q3: geomean(g3)}}
		q1s, meds, q3s, tails = append(q1s, s.Q1), append(meds, s.Median), append(q3s, s.Q3), append(tails, s.Tail)
		if q.N < 0 || s.N < q.N {
			q.N = s.N
		}
		sums = append(sums, s)
	}
	q.N = max(q.N, 0)
	q.Q1, q.Median, q.Q3 = geomean(q1s), geomean(meds), geomean(q3s)
	return q.Median, geomean(tails), q, sums
}

// noteTail says so when a run collected too few ops per cell for the tail
// percentile it reports: fewer than ten samples beyond it.
func (e *runEnv) noteTail(perCell int, tailQ float64) {
	if !e.smoke && supportedTail(perCell) < tailQ {
		fmt.Fprintf(e.log, "   note: %d ops per cell leaves fewer than ten beyond p%.0f; op_tail_ms is underpowered on this host\n", perCell, tailQ*100)
	}
}

// window is what a run measured over its timed window, before it is turned
// into per-op metrics.
type window struct {
	ops     int     // OK ops
	seconds float64 // the timed window
	allocs  uint64  // Mallocs delta
	cpuS    float64 // user+sys delta
}

// setEndToEnd fills in the end-to-end metrics of an untraced run.
func (r *runResult) setEndToEnd(env *runEnv, cells []cellSamples, tailQ float64, setups []float64, w window) {
	opMS, tailMS, q, sums := latencyMetrics(cells, tailQ)
	r.Cells = sums
	setupQ := summarize(setups)
	n := float64(w.ops)
	r.set(endToEnd, map[string]float64{
		"op_ms":         opMS,
		"op_tail_ms":    tailMS,
		"ops_per_s":     n / w.seconds,
		"allocs_per_op": float64(w.allocs) / n,
		"cpu_s_per_op":  w.cpuS / n,
		"peak_rss_mb":   usage().peakRSSMiB,
		"setup_s":       setupQ.Median,
	}, map[string]quartiles{"op_ms": q, "setup_s": setupQ})
	env.noteTail(q.N, tailQ)
}
