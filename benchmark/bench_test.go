package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b)) }

// The percentile picker: the highest percentile with ten samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {39, 0}, {40, 0.75}, {99, 0.75}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); !near(got, c.want, 1e-12) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
	if s := summarize([]float64{4, 1, 3, 2}); s.N != 4 || s.Median != 2.5 || !near(s.spread(), (3.25-1.75)/2.5, 1e-12) {
		t.Errorf("summarize = %+v spread %v", s, s.spread())
	}
}

// op_ms is the geometric mean of per-cell medians, never a pooled median:
// two cells 100x apart give 10, where pooling would give one cell's value
// or the other depending on which ran more ops.
func TestPerCellGeomean(t *testing.T) {
	cells := []cellSamples{
		{name: "fast", ms: []float64{1, 1, 1, 1, 1, 1, 1}},
		{name: "slow", ms: []float64{90, 100, 110}},
	}
	op, tail, q, sums := latencyMetrics(cells, 0.75)
	if !near(op, 10, 1e-12) {
		t.Errorf("op_ms = %v, want 10", op)
	}
	if !near(tail, math.Sqrt(1*105), 1e-12) {
		t.Errorf("op_tail_ms = %v, want sqrt(105)", tail)
	}
	if q.N != 3 || len(sums) != 2 || !near(sums[1].Median, 100, 1e-12) {
		t.Errorf("quartiles %+v, cells %+v", q, sums)
	}
	// A cell that rotates through inputs takes its median per input, then
	// their geomean: inputs costing 10 and 40 give 20 however many ops each
	// got, where the median of the mixture would give 10 or 40.
	mixed := []cellSamples{{name: "dmr", ms: []float64{10, 40, 10, 40, 10}, variant: []int{0, 1, 0, 1, 0}}}
	if op, _, _, _ := latencyMetrics(mixed, 0.75); !near(op, 20, 1e-12) {
		t.Errorf("op_ms over two inputs = %v, want 20", op)
	}
}

// A span's self time is its duration minus the part its children cover:
// overlapping children count once, children are clipped to the parent, and
// self plus covered is the whole.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps span 1
		{ID: 3, Parent: 0, Start: 90, End: 120}, // runs past the parent
		{ID: 4, Parent: 2, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := []int64{50, 20, 20, 30, 10}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	// parts + unattributed = whole, for the root: the children's clipped
	// union (10..50 and 90..100) plus the root's self time.
	if covered := int64(40 + 10); covered+self[0] != spans[0].End-spans[0].Start {
		t.Errorf("covered %d + self %d != duration", covered, self[0])
	}
}

func TestTracerNilAndCap(t *testing.T) {
	var off *tracer
	ran := false
	off.around("x", 0, -1, func() { ran = true })
	if !ran || off.add("x", 0, -1, 0, 1) != -1 || off.write(t.TempDir()) != nil {
		t.Error("a nil tracer must run the function and record nothing")
	}
	tr := newTracer()
	for i := 0; i < maxSpans+5; i++ {
		tr.add("x", i, -1, 0, 1)
	}
	if len(tr.spans) != maxSpans || tr.dropped != 5 {
		t.Errorf("kept %d spans, dropped %d", len(tr.spans), tr.dropped)
	}
	dir := t.TempDir()
	if err := tr.write(dir); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans   []span `json:"spans"`
		Dropped int    `json:"dropped"`
	}
	data, _ := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.Spans) != maxSpans || doc.Dropped != 5 {
		t.Errorf("trace.json: %v, %d spans, %d dropped", err, len(doc.Spans), doc.Dropped)
	}
}

// Same seed, same spec sequence; another seed, another; and no miss spec is
// ever repeated, within a client or between clients.
func TestGeneratorDeterminism(t *testing.T) {
	seen := map[uint64]bool{}
	for c := 0; c < 4; c++ {
		for k := 0; k < 500; k++ {
			a, b := missRequest(7, c, k), missRequest(7, c, k)
			if a != b {
				t.Fatalf("missRequest(7,%d,%d) is not a function of its arguments", c, k)
			}
			if seen[a.spec.Seed] {
				t.Fatalf("miss spec seed %d repeats at client %d op %d", a.spec.Seed, c, k)
			}
			seen[a.spec.Seed] = true
			if other := missRequest(8, c, k); other.spec.Seed == a.spec.Seed {
				t.Fatalf("seeds 7 and 8 give the same spec at client %d op %d", c, k)
			}
		}
	}
	// Every run of len(missKinds) consecutive ops of a client is one sweep.
	for c := 0; c < 4; c++ {
		cells := map[int]bool{}
		for k := 0; k < len(missKinds); k++ {
			cells[missRequest(7, c, k).cell] = true
		}
		if len(cells) != len(missKinds) {
			t.Errorf("client %d: a sweep covers %d of %d cells", c, len(cells), len(missKinds))
		}
	}

	if !reflect.DeepEqual(hotSpecs(7), hotSpecs(7)) || reflect.DeepEqual(hotSpecs(7), hotSpecs(8)) {
		t.Error("hotSpecs must depend on the seed and on nothing else")
	}
	if n := len(hotSpecs(7)); n != 40 {
		t.Errorf("%d hot specs, want 40", n)
	}
	draw := func(seed uint64, c int) []int {
		h := newHitRanks(seed, c)
		out := make([]int, 200)
		for i := range out {
			out[i] = h.next()
		}
		return out
	}
	if !reflect.DeepEqual(draw(7, 0), draw(7, 0)) {
		t.Error("the same seed and client must draw the same ranks")
	}
	if reflect.DeepEqual(draw(7, 0), draw(8, 0)) || reflect.DeepEqual(draw(7, 0), draw(7, 1)) {
		t.Error("another seed or another client must draw other ranks")
	}
	// zipf(1.1) over 40 ranks: rank 0 is drawn most, and about 27% of the time.
	counts := make([]int, 40)
	h := newHitRanks(7, 0)
	for i := 0; i < 20000; i++ {
		counts[h.next()]++
	}
	if share := float64(counts[0]) / 20000; share < 0.24 || share > 0.30 || counts[0] <= counts[1] {
		t.Errorf("rank 0 drawn %.3f of the time, rank 1 %d times", share, counts[1])
	}
}

// BENCHMARK.json and the benchmark must name the same workloads and metrics,
// in the same order, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) || len(doc.Command) == 0 || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("command %v, paths %v, run_seconds %d", doc.Command, doc.Paths, doc.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		used[n] = true
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q / %q", i, w.Name, w.Why)
		}
	}
	match := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			checkName(g.Name)
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || !unit.MatchString(g.Unit) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, w)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better = %q", g.Name, g.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || w.Bound <= 0 || w.Bound > 0.25):
				t.Errorf("%s: bound %v, the benchmark has %v", g.Name, g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", g.Name)
			}
		}
	}
	match("end_to_end", doc.EndToEnd, endToEnd, true)
	match("per_layer", doc.PerLayer, perLayer, false)
	var list bytes.Buffer
	printList(&list)
	for n := range used {
		if !strings.Contains(list.String(), " "+n+" ") {
			t.Errorf("-list does not print %s", n)
		}
	}
}

func metricsOf(r *runResult) map[string]float64 {
	m := map[string]float64{}
	for _, v := range r.Metrics {
		m[v.Name] = v.Value
	}
	return m
}

// A smoke pass of all five workloads, both passes, at tiny op counts: every
// output is checked, every metric of the pass is reported, the result line
// has the contract's shape, and the traced parts sum to the whole.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			env := &runEnv{seed: 7, seconds: 0.2, trace: trace, smoke: true, threads: 2, outDir: t.TempDir(), log: io.Discard}
			res, err := w.run(env)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.correct() || res.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", w.Name, trace, res.Attempted, res.Failed, res.Failures)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			var line struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(strings.NewReader(res.resultLine()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Fatalf("%s: result line %s: %v", w.Name, res.resultLine(), err)
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics on the result line, want %d", w.Name, trace, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s missing or malformed: %+v", w.Name, trace, d.Name, m)
				}
				if !trace && ok && m.Value != nil && *m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, *m.Value)
				}
			}
			if !trace {
				continue
			}
			if _, err := os.Stat(filepath.Join(env.outDir, "trace.json")); err != nil {
				t.Errorf("%s: traced pass wrote no trace: %v", w.Name, err)
			}
			m := metricsOf(res)
			switch {
			case strings.HasPrefix(w.Name, "engine-"):
				parts := m["core.inspect_ms"] + m["core.execute_ms"] + m["core.coordinate_ms"] + m["core.unattributed_ms"]
				if m["core.run_ms"] <= 0 || !near(parts, m["core.run_ms"], 0.01) {
					t.Errorf("%s: phases + unattributed = %v, run = %v", w.Name, parts, m["core.run_ms"])
				}
			case w.Name == "serve-miss":
				parts := m["serve.run_ms"] + m["serve.queue_ms"] + m["serve.overhead_ms"] + m["serve.http_ms"] + m["router.hop_ms"] + m["client.unattributed_ms"]
				if m["client.op_ms"] <= 0 || !near(parts, m["client.op_ms"], 0.01) {
					t.Errorf("serve-miss: parts + unattributed = %v, client.op_ms = %v", parts, m["client.op_ms"])
				}
				if m["serve.cache_hit_ratio"] != 0 {
					t.Errorf("serve-miss: cache hit ratio %v, must be exactly 0", m["serve.cache_hit_ratio"])
				}
			case w.Name == "serve-hit":
				if m["serve.cache_hit_ratio"] != 1 {
					t.Errorf("serve-hit: cache hit ratio %v, must be exactly 1", m["serve.cache_hit_ratio"])
				}
			}
		}
	}
}

// A wrong output must fail the run: corrupt a reference and the op that
// compares against it counts as failed.
func TestWrongFingerprintFails(t *testing.T) {
	env := &runEnv{seed: 7, smoke: true, threads: 2, log: io.Discard}
	res := &runResult{}
	sz := env.engineSizes()
	b := newEngineBench(env, res, nil, func() []engineCell {
		return []engineCell{dmrCell(sz.dmrPoints, env.seed, true)}
	})
	defer b.close()
	if res.Failed != 0 {
		t.Fatalf("clean set-up failed %d ops: %v", res.Failed, res.Failures)
	}
	for v := range b.refs[0] {
		b.refs[0][v] ^= 1
	}
	b.op(0, nil)
	if res.Failed != 1 {
		t.Errorf("an op with the wrong fingerprint was not counted as failed")
	}
}

func TestAgree(t *testing.T) {
	mk := func(scale float64) *resultSet {
		set := &resultSet{Host: "test", Seed: 1, Seconds: 1, Reps: 3}
		sw := setWorkload{Name: "engine-mesh", Correct: true}
		for _, d := range endToEnd {
			vals := []float64{100 * scale, 101 * scale, 102 * scale}
			sw.EndToEnd = append(sw.EndToEnd, setMetric{Name: d.Name, Unit: d.Unit, Values: vals, quartiles: summarize(vals)})
		}
		set.Workloads = append(set.Workloads, sw)
		return set
	}
	write := func(set *resultSet) string {
		path := filepath.Join(t.TempDir(), "set.json")
		data, _ := json.Marshal(set)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	if ok, err := agreeFiles(&out, write(mk(1)), write(mk(1.03))); err != nil || !ok {
		t.Errorf("sets 3%% apart must agree (every bound is wider): %v\n%s", err, out.String())
	}
	out.Reset()
	ok, err := agreeFiles(&out, write(mk(1)), write(mk(1.12)))
	if err != nil || ok || !strings.Contains(out.String(), "| engine-mesh | allocs_per_op | count | 101 | 113.12 | 12.0% | 1.0% | 1.0% | 10% | **FAIL** |") ||
		!strings.Contains(out.String(), "| engine-mesh | op_ms | ms | 101 | 113.12 | 12.0% | 1.0% | 1.0% | 20% | PASS |") ||
		!strings.Contains(out.String(), "NOT IN AGREEMENT") {
		t.Errorf("sets 12%% apart must fail allocs_per_op's 10%% bound and pass op_ms's 20%%: %v\n%s", err, out.String())
	}
	noisy := mk(1)
	vals := []float64{80, 100, 130}
	noisy.Workloads[0].EndToEnd[0] = setMetric{Name: "op_ms", Unit: "ms", Values: vals, quartiles: summarize(vals)}
	out.Reset()
	if ok, _ := agreeFiles(&out, write(noisy), write(mk(1))); ok || !strings.Contains(out.String(), "UNRESOLVED") {
		t.Errorf("a spread wider than the bound must be reported as unresolved:\n%s", out.String())
	}
}
