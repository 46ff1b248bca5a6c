package main

// metricDef names one metric of BENCHMARK.json. Bound applies to end-to-end
// metrics only: the share of the parent's median by which the metric may
// worsen before a change counts as a regression. Moves applies to per-layer
// metrics: the end-to-end metric and workload the layer metric should move,
// written down before anything is measured against it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. Each bound is at least three times the widest ten-seed spread measured
// for the metric on any workload (BASELINE.md), up to the 25% the driver
// allows; serve-miss, whose latencies are bimodal under its growing heap,
// and engine-nondet's speculative runs set most of them. Every one is reported on every workload. Failures are not a metric
// here: they travel in the result line's attempted/failed/correct keys,
// because a ratio that is normally 0 has no relative bound.
var endToEnd = []metricDef{
	{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.10},
	{Name: "cpu_s_per_op", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	movesFine  = "op_ms on engine-finegrain"
	movesMesh  = "op_ms on engine-mesh"
	movesND    = "op_ms on engine-nondet"
	movesMiss  = "op_ms, op_tail_ms on serve-miss"
	movesHit   = "op_ms, ops_per_s on serve-hit"
	movesCount = "explains an op_ms move; exact for g-d at fixed threads"
)

// perLayer are the metrics of single layers, produced by the traced pass and
// named layer.metric after the repo's packages. A layer a workload does not
// exercise reports 0 there.
var perLayer = []metricDef{
	{Name: "core.run_ms", Unit: "ms", Better: "lower", Moves: movesFine + " and engine-mesh"},
	{Name: "core.inspect_ms", Unit: "ms", Better: "lower", Moves: movesFine + " (inspect dominant)"},
	{Name: "core.execute_ms", Unit: "ms", Better: "lower", Moves: movesMesh + " (execute dominant)"},
	{Name: "core.coordinate_ms", Unit: "ms", Better: "lower", Moves: movesFine + " and engine-mesh"},
	{Name: "core.unattributed_ms", Unit: "ms", Better: "lower", Moves: movesMesh + " (formation, sort, arena, app code outside ForEach)"},
	{Name: "core.ns_per_task", Unit: "ns", Better: "lower", Moves: movesFine},
	{Name: "core.commits", Unit: "count", Better: "lower", Moves: movesCount},
	{Name: "core.aborts", Unit: "count", Better: "lower", Moves: movesCount},
	{Name: "core.commit_ratio", Unit: "ratio", Better: "higher", Moves: movesCount},
	{Name: "core.rounds", Unit: "count", Better: "lower", Moves: movesCount},
	{Name: "core.barriers_per_round", Unit: "count", Better: "lower", Moves: movesCount},
	{Name: "core.inspects", Unit: "count", Better: "lower", Moves: movesCount},
	{Name: "core.atomic_ops_per_task", Unit: "count", Better: "lower", Moves: movesCount},
	{Name: "core.pushes", Unit: "count", Better: "lower", Moves: movesCount},
	{Name: "core.mean_window", Unit: "count", Better: "higher", Moves: movesCount},
	{Name: "core.allocs_per_task", Unit: "count", Better: "lower", Moves: "allocs_per_op on engine-*"},
	{Name: "core.bytes_per_task", Unit: "B", Better: "lower", Moves: "allocs_per_op, peak_rss_mb on engine-*"},
	{Name: "core.t1_run_ms", Unit: "ms", Better: "lower", Moves: "context for op_ms on engine-*: scaling"},
	{Name: "core.speedup", Unit: "ratio", Better: "higher", Moves: "context for op_ms on engine-*: t1 / tP"},
	{Name: "apps.seq_ms", Unit: "ms", Better: "lower", Moves: "context for op_ms on engine-*: det vs sequential (paper Fig. 7)"},
	{Name: "apps.fingerprint_ms", Unit: "ms", Better: "lower", Moves: "setup_s on engine-*; op_ms on serve-miss"},
	{Name: "inputs.build_ms", Unit: "ms", Better: "lower", Moves: "setup_s on engine-*; op_ms on serve-miss (built per unique seed)"},
	{Name: "marks.writemax_ns", Unit: "ns", Better: "lower", Moves: movesFine},
	{Name: "marks.writemax_contended_ns", Unit: "ns", Better: "lower", Moves: movesFine},
	{Name: "marks.tryacquire_ns", Unit: "ns", Better: "lower", Moves: movesND},
	{Name: "para.barrier_ns", Unit: "ns", Better: "lower", Moves: "op_ms, cpu_s_per_op on engine-finegrain and engine-mesh, via rounds x barriers_per_round"},
	{Name: "para.pool_run_us", Unit: "us", Better: "lower", Moves: "op_ms on engine-* (one wake per ForEach)"},
	{Name: "galois.empty_task_det_ns", Unit: "ns", Better: "lower", Moves: movesFine + " (ns/task floor)"},
	{Name: "galois.empty_task_nondet_ns", Unit: "ns", Better: "lower", Moves: movesND + " (ns/task floor)"},
	{Name: "galois.acquire_task_det_ns", Unit: "ns", Better: "lower", Moves: movesFine},
	{Name: "galois.engine_new_us", Unit: "us", Better: "lower", Moves: "setup_s on engine-*; op_ms on serve-miss when the pool misses"},
	{Name: "psort.sort_ns_per_elem", Unit: "ns", Better: "lower", Moves: movesMesh},
	{Name: "worklist.pushpop_ns", Unit: "ns", Better: "lower", Moves: movesND},
	{Name: "client.op_ms", Unit: "ms", Better: "lower", Moves: "the enclosing span on serve-miss: the parts below sum to it"},
	{Name: "serve.run_ms", Unit: "ms", Better: "lower", Moves: movesMiss},
	{Name: "serve.queue_ms", Unit: "ms", Better: "lower", Moves: movesMiss + " (admission to run start: queue, input build, engine checkout)"},
	{Name: "serve.execute_ms", Unit: "ms", Better: "lower", Moves: movesMiss},
	{Name: "serve.overhead_ms", Unit: "ms", Better: "lower", Moves: movesMiss},
	{Name: "serve.http_ms", Unit: "ms", Better: "lower", Moves: movesMiss},
	{Name: "router.hop_ms", Unit: "ms", Better: "lower", Moves: movesMiss},
	{Name: "client.unattributed_ms", Unit: "ms", Better: "lower", Moves: movesMiss},
	{Name: "serve.hit_execute_us", Unit: "us", Better: "lower", Moves: movesHit},
	{Name: "serve.hit_http_us", Unit: "us", Better: "lower", Moves: movesHit},
	{Name: "router.hit_hop_us", Unit: "us", Better: "lower", Moves: movesHit},
	{Name: "serve.hit_p99_us", Unit: "us", Better: "lower", Moves: "op_tail_ms on serve-hit"},
	{Name: "rescache.keyof_ns", Unit: "ns", Better: "lower", Moves: movesHit},
	{Name: "rescache.get_hit_ns", Unit: "ns", Better: "lower", Moves: movesHit},
	{Name: "rescache.put_ns", Unit: "ns", Better: "lower", Moves: "op_ms on serve-miss only"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "must be 0 on serve-miss and 1 on serve-hit, or the workload is broken"},
	{Name: "serve.cache_bytes", Unit: "B", Better: "lower", Moves: "peak_rss_mb on serve-*"},
	{Name: "serve.cache_evictions", Unit: "count", Better: "lower", Moves: "ops_per_s on serve-hit"},
	{Name: "serve.engine_hit_ratio", Unit: "ratio", Better: "higher", Moves: "op_ms on serve-miss"},
	{Name: "serve.rejected_429", Unit: "count", Better: "lower", Moves: "failed ops, ops_per_s on serve-*"},
	{Name: "router.backend_share_max", Unit: "ratio", Better: "lower", Moves: "ops_per_s on serve-*"},
	{Name: "router.retries", Unit: "count", Better: "lower", Moves: "failed ops, op_tail_ms on serve-*"},
	{Name: "session.batch_ms", Unit: "ms", Better: "lower", Moves: "no end-to-end metric: baseline for the tombstone/compaction item"},
	{Name: "session.verify_ms", Unit: "ms", Better: "lower", Moves: "no end-to-end metric: baseline for the tombstone/compaction item"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "must stay small, or the per-layer numbers do not describe the untraced run"},
}

// workloadDef is one named workload: what it runs and why it is here.
type workloadDef struct {
	Name string
	Why  string
	run  func(env *runEnv) (*runResult, error)
}

// workloads in the order they are listed and run.
var workloads = []workloadDef{
	{"engine-finegrain", "bfs+mis g-d in process: hundreds of thousands of near-empty tasks per op, so inspect, marks.WriteMax and para.Barrier do almost all the work", runEngineFinegrain},
	{"engine-mesh", "dt+dmr g-d in process: coarse tasks that create children, so the operator, mesh/geom, generation formation, psort and the allocator dominate", runEngineMesh},
	{"engine-nondet", "bfs+mis+dmr g-n on the same inputs: the shared core/marks/worklist code used speculatively, so a g-d gain bought with a g-n loss shows", runEngineNondet},
	{"serve-miss", "never-repeated specs through router and 2 galoisd: every request walks the whole miss path and grows the input cache", runServeMiss},
	{"serve-hit", "zipf-drawn warmed specs through the same stack: the engine does nothing, so router, HTTP/JSON and rescache do everything", runServeHit},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
