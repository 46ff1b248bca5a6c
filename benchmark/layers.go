package main

import (
	"math"
	"runtime"
	"sort"

	"galois"
	"galois/internal/inputs"
	"galois/internal/marks"
	"galois/internal/para"
	"galois/internal/psort"
	"galois/internal/rescache"
	"galois/internal/rng"
	"galois/internal/serve"
	"galois/internal/worklist"
)

// The traced pass. Every layer is measured from outside: by timing calls
// into its public functions and reading the counters those functions
// already return. It spends part of the run on the workload's own ops,
// traced and untraced in alternation (their difference is the tracing
// overhead), and the rest on probes of the layers below the run.

// tracedShare is the part of --seconds the traced pass spends on the
// workload's ops; the extra runs and the probes take the rest. A serving
// pass splits its ops four ways and has no extra runs, so it takes more.
const (
	tracedShare      = 0.45
	tracedShareServe = 0.65
)

// overheadPct is how much slower the traced ops ran than the untraced ops
// interleaved with them, in percent of the untraced op_ms.
func overheadPct(untraced, traced []cellSamples, tailQ float64) float64 {
	u, _, _, _ := latencyMetrics(untraced, tailQ)
	t, _, _, _ := latencyMetrics(traced, tailQ)
	if u == 0 || t == 0 {
		return 0
	}
	return (t/u - 1) * 100
}

// perCell is the mean over cells of the per-cell median of f: the way every
// per-op layer metric is folded into one number per workload.
func perCell[T any](ops []T, cells int, cellOf func(T) int, f func(T) float64) float64 {
	var meds []float64
	for c := 0; c < cells; c++ {
		var xs []float64
		for _, op := range ops {
			if cellOf(op) == c {
				xs = append(xs, f(op))
			}
		}
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return mean(meds)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// traceEngine is the traced pass of an in-process workload.
func traceEngine(env *runEnv, res *runResult, mk func() []engineCell) error {
	tr := newTracer()
	b := newEngineBench(env, res, tr, mk)
	defer b.close()
	b.window(env.seconds*tracedShare, tr)

	var traced []engineOp
	for _, op := range b.ops {
		if op.traced {
			traced = append(traced, op)
		}
	}
	vals := map[string]float64{}
	cellOf := func(op engineOp) int { return op.cell }
	fold := func(name string, f func(engineOp) float64) { vals[name] = perCell(traced, len(b.cells), cellOf, f) }
	phases := func(op engineOp) float64 {
		return float64(op.st.PhaseInspectNS+op.st.PhaseExecuteNS+op.st.PhaseCoordinateNS) / 1e6
	}
	tasks := func(op engineOp) float64 { return float64(op.st.Commits) }
	fold("core.run_ms", func(op engineOp) float64 { return op.latMS })
	fold("core.inspect_ms", func(op engineOp) float64 { return float64(op.st.PhaseInspectNS) / 1e6 })
	fold("core.execute_ms", func(op engineOp) float64 { return float64(op.st.PhaseExecuteNS) / 1e6 })
	fold("core.coordinate_ms", func(op engineOp) float64 { return float64(op.st.PhaseCoordinateNS) / 1e6 })
	// What the phase counters do not cover: generation formation, the id
	// sort, arena growth and app code outside ForEach. Per op, the three
	// phases plus this are the run by construction.
	fold("core.unattributed_ms", func(op engineOp) float64 { return op.latMS - phases(op) })
	fold("core.ns_per_task", func(op engineOp) float64 { return ratio(op.latMS*1e6, tasks(op)) })
	fold("core.commits", tasks)
	fold("core.aborts", func(op engineOp) float64 { return float64(op.st.Aborts) })
	fold("core.commit_ratio", func(op engineOp) float64 { return 1 - op.st.AbortRatio() })
	fold("core.rounds", func(op engineOp) float64 { return float64(op.st.Rounds) })
	fold("core.barriers_per_round", func(op engineOp) float64 { return ratio(float64(op.st.Barriers), float64(op.st.Rounds)) })
	fold("core.inspects", func(op engineOp) float64 { return float64(op.st.Inspects) })
	fold("core.atomic_ops_per_task", func(op engineOp) float64 { return ratio(float64(op.st.AtomicOps), tasks(op)) })
	fold("core.pushes", func(op engineOp) float64 { return float64(op.st.Pushes) })
	fold("core.mean_window", func(op engineOp) float64 { return ratio(float64(op.st.WindowSum), float64(op.st.Rounds)) })
	fold("core.allocs_per_task", func(op engineOp) float64 { return ratio(float64(op.allocs), tasks(op)) })
	fold("core.bytes_per_task", func(op engineOp) float64 { return ratio(float64(op.bytes), tasks(op)) })
	fold("apps.fingerprint_ms", func(op engineOp) float64 { return op.fpMS })
	vals["bench.trace_overhead_pct"] = overheadPct(b.samples(false), b.samples(true), engineTailQ)

	// One extra run each: the same variant at one thread, and the plain
	// sequential program. Context for op_ms — scaling, and deterministic
	// against sequential as in the paper's Figure 7.
	reps := 3
	if env.smoke {
		reps = 1
	}
	var t1s, seqs, speedups []float64
	eng1 := galois.NewEngine(galois.WithThreads(1))
	defer eng1.Close()
	for ci, c := range b.cells {
		var t1, seq, tP []float64
		for r := 0; r < reps; r++ {
			t1 = append(t1, timeApp(c, r, func(in any) { c.run(in, schedOpts(c.det, 1, eng1)) }))
			seq = append(seq, timeApp(c, r, c.seq))
		}
		for _, op := range traced {
			if op.cell == ci {
				tP = append(tP, op.latMS)
			}
		}
		t1s, seqs = append(t1s, median(t1)), append(seqs, median(seq))
		speedups = append(speedups, ratio(median(t1), median(tP)))
	}
	vals["core.t1_run_ms"], vals["apps.seq_ms"], vals["core.speedup"] = mean(t1s), mean(seqs), mean(speedups)

	// Input building: the set-up build plus one per-op rebuild for every
	// cell that consumes its input (the sum over cells of the median).
	vals["inputs.build_ms"] = b.buildMS +
		float64(len(b.cells))*perCell(traced, len(b.cells), cellOf, func(op engineOp) float64 { return op.prepMS })

	layerProbes(env, vals)
	res.set(perLayer, vals, nil)
	return tr.write(env.outDir)
}

// timeApp times fn on a freshly prepared input variant of cell c, collecting
// the previous run's garbage first, and returns milliseconds.
func timeApp(c engineCell, variant int, fn func(in any)) float64 {
	var in any
	if c.prepare != nil {
		in = c.prepare(variant % max(c.variants, 1))
	}
	runtime.GC()
	start := now()
	fn(in)
	return msSince(start)
}

// traceServe is the traced pass of a serving workload. The same kinds of
// spec go alternately down each successively longer path — Server.Execute,
// Client.Submit straight to a galoisd, Client.Submit through the router —
// and each layer is the difference between two neighbours.
func traceServe(env *runEnv, res *runResult, w serveWorkload) error {
	tr := newTracer()
	b, err := newServeBench(env, res, w.kinds)
	if err != nil {
		return err
	}
	defer b.close()
	if err := w.setup(b, true); err != nil {
		return err
	}
	before := b.cl.cacheCounters()
	share0 := b.cl.rt.Snapshot()

	seconds, maxOps := env.seconds*tracedShareServe, 0
	if env.smoke {
		seconds, maxOps = math.Inf(1), 2*(numPaths+1)
	}
	b.window(seconds, maxOps, tr)

	vals := map[string]float64{}
	path := func(p int) []serveOp {
		var ops []serveOp
		for _, op := range b.ops {
			if op.traced && op.path == p {
				ops = append(ops, op)
			}
		}
		return ops
	}
	cellOf := func(op serveOp) int { return op.cell }
	fold := func(ops []serveOp, f func(serveOp) float64) float64 { return perCell(ops, len(b.kinds), cellOf, f) }
	lat := func(op serveOp) float64 { return op.latMS }
	// The run time of a miss varies with the spec's seed by more than the
	// layers around it cost, so those layers are taken per op as what is
	// left of the latency once the server-reported run and queue times are
	// removed, and only then differenced between paths.
	outside := func(op serveOp) float64 { return op.latMS - op.runMS - op.queueMS }
	exec, direct, routed := path(pathExecute), path(pathDirect), path(pathRouter)
	if w.name == serveHit.name {
		vals["serve.hit_execute_us"] = 1e3 * fold(exec, lat)
		vals["serve.hit_http_us"] = 1e3 * (fold(direct, lat) - fold(exec, lat))
		vals["router.hit_hop_us"] = 1e3 * (fold(routed, lat) - fold(direct, lat))
		var all []float64
		for _, op := range routed {
			all = append(all, op.latMS)
		}
		sort.Float64s(all)
		vals["serve.hit_p99_us"] = 1e3 * quantile(all, 0.99)
	} else {
		// The op at the median of each cell's routed latencies: for that op
		// run + queue + outside is its latency exactly, so the parts below
		// sum to client.op_ms, and client.unattributed_ms is how far that
		// op's time outside the run is from what the path differences say
		// the layers outside the run typically cost.
		mid := middleOps(routed, len(b.kinds))
		vals["client.op_ms"] = fold(mid, lat)
		vals["serve.run_ms"] = fold(mid, func(op serveOp) float64 { return op.runMS })
		vals["serve.queue_ms"] = fold(mid, func(op serveOp) float64 { return op.queueMS })
		vals["serve.execute_ms"] = fold(exec, lat)
		vals["serve.overhead_ms"] = fold(exec, outside)
		vals["serve.http_ms"] = fold(direct, outside) - fold(exec, outside)
		vals["router.hop_ms"] = fold(routed, outside) - fold(direct, outside)
		vals["client.unattributed_ms"] = fold(mid, outside) - fold(routed, outside)
		// The engine under the server, as far as a job response shows it.
		vals["core.run_ms"] = vals["serve.run_ms"]
		vals["core.commits"] = fold(routed, func(op serveOp) float64 { return op.commits })
		vals["core.aborts"] = fold(routed, func(op serveOp) float64 { return op.aborts })
		vals["core.rounds"] = fold(routed, func(op serveOp) float64 { return op.rounds })
		vals["core.commit_ratio"] = fold(routed, func(op serveOp) float64 { return ratio(op.commits, op.commits+op.aborts) })
		vals["core.ns_per_task"] = fold(routed, func(op serveOp) float64 { return ratio(op.runMS*1e6, op.commits) })
	}
	vals["bench.trace_overhead_pct"] = overheadPct(b.samples(false), b.samples(true), w.tailQ)

	after := b.cl.cacheCounters()
	vals["serve.cache_hit_ratio"] = ratio(float64(after.Hits-before.Hits), float64(after.Hits-before.Hits+after.Misses-before.Misses))
	vals["serve.cache_bytes"] = float64(after.Bytes)
	vals["serve.cache_evictions"] = float64(after.Evictions)
	var hits, checkouts uint64
	for _, srv := range b.cl.servers {
		pc := srv.PoolCounters()
		hits += pc.Hits
		checkouts += pc.Hits + pc.Misses + pc.Transients
	}
	vals["serve.engine_hit_ratio"] = ratio(float64(hits), float64(checkouts))
	vals["serve.rejected_429"] = float64(b.rejected)
	share1 := b.cl.rt.Snapshot()
	var most, total float64
	for i := range share1.Backends {
		d := float64(share1.Backends[i].Requests - share0.Backends[i].Requests)
		most, total = math.Max(most, d), total+d
	}
	vals["router.backend_share_max"] = ratio(most, total)
	vals["router.retries"] = b.cl.routerRetries()

	b.verifyReceipts(w.receipts(b), 12)
	vals["session.batch_ms"], vals["session.verify_ms"] = sessionBaseline(env, res, b.clients[0].front)

	// What the server pays per never-repeated seed, measured directly.
	reg := serve.DefaultRegistry()
	var builds []float64
	for _, name := range w.kinds {
		kind := reg.Lookup(name)
		start := now()
		data := kind.Build(inputs.SmallScale(), env.seed)
		if kind.Reset != nil {
			kind.Reset(data) // dmr builds its mesh here
		}
		builds = append(builds, msSince(start))
	}
	vals["inputs.build_ms"] = mean(builds)

	layerProbes(env, vals)
	res.set(perLayer, vals, nil)
	return tr.write(env.outDir)
}

// middleOps keeps, per cell, the op at the median latency (the two around it
// when the cell has an even number), so that a fold over the result reads
// that op's own parts.
func middleOps(ops []serveOp, cells int) []serveOp {
	var out []serveOp
	for c := 0; c < cells; c++ {
		var cell []serveOp
		for _, op := range ops {
			if op.cell == c {
				cell = append(cell, op)
			}
		}
		sort.Slice(cell, func(i, j int) bool { return cell[i].latMS < cell[j].latMS })
		if n := len(cell); n > 0 {
			out = append(out, cell[(n-1)/2:n/2+1]...)
		}
	}
	return out
}

// probeReps is how often each probe repeats; the median is reported.
const probeReps = 5

// probe runs fn probeReps times and returns the median of what it reports.
func probe(fn func() float64) float64 {
	var xs []float64
	for i := 0; i < probeReps; i++ {
		xs = append(xs, fn())
	}
	return median(xs)
}

// nsPer times fn, which performs n operations, and returns ns per operation.
func nsPer(n int, fn func()) float64 {
	start := now()
	fn()
	return float64(now().Sub(start).Nanoseconds()) / float64(n)
}

// layerProbes measures the layers below a run in tight loops at P threads.
// They do not depend on the workload and cost about a second in all, so
// every traced pass reports them.
func layerProbes(env *runEnv, vals map[string]float64) {
	p := env.threads
	scale := 1
	if env.smoke {
		scale = 50
	}
	const slots = 1024 // abstract locations per set: 8 KiB of mark words, cache resident

	// marks: the deterministic scheduler's priority write and the
	// speculative scheduler's try-lock, per call.
	writeMax := func(locks [][]marks.Lockable) float64 {
		rounds := 200 / scale
		return nsPer(rounds*slots, func() {
			para.Run(p, func(tid int) {
				own := locks[tid%len(locks)]
				recs := make([]marks.Rec, rounds)
				for r := range recs {
					// Ids grow round over round, so every call wins its
					// mark: one load and one compare-and-swap.
					recs[r].Reset(uint64(r*p + tid + 1))
					for i := range own {
						own[i].WriteMax(&recs[r])
					}
				}
			})
		})
	}
	private := make([][]marks.Lockable, p)
	for i := range private {
		private[i] = make([]marks.Lockable, slots)
	}
	vals["marks.writemax_ns"] = probe(func() float64 { return writeMax(private) })
	vals["marks.writemax_contended_ns"] = probe(func() float64 { return writeMax([][]marks.Lockable{make([]marks.Lockable, slots)}) })
	vals["marks.tryacquire_ns"] = probe(func() float64 {
		rounds := 200 / scale
		return nsPer(rounds*slots, func() {
			para.Run(p, func(tid int) {
				own := private[tid]
				var rec marks.Rec
				rec.Reset(uint64(tid + 1))
				for r := 0; r < rounds; r++ {
					for i := range own {
						own[i].TryAcquire(&rec)
						own[i].Release(&rec)
					}
				}
			})
		})
	})

	// para: one barrier crossing at P parties, and one wake of the
	// persistent pool.
	vals["para.barrier_ns"] = probe(func() float64 {
		n := 20_000 / scale
		bar := para.NewBarrier(p)
		return nsPer(n, func() {
			para.Run(p, func(int) {
				for i := 0; i < n; i++ {
					bar.WaitDo(nil)
				}
			})
		})
	})
	pool := para.NewPool()
	vals["para.pool_run_us"] = probe(func() float64 {
		n := 2_000 / scale
		return nsPer(n, func() {
			for i := 0; i < n; i++ {
				pool.Run(p, func(int) {})
			}
		}) / 1e3
	})
	pool.Close()

	// galois: the ns/task floor — an operator that does nothing, under each
	// scheduler, and one that acquires a location and commits.
	items := make([]int32, 250_000/scale)
	for i := range items {
		items[i] = int32(i)
	}
	locs := make([]galois.Lockable, len(items))
	eng := galois.NewEngine(galois.WithThreads(p))
	emptyTask := func(det bool) float64 {
		return nsPer(len(items), func() {
			galois.ForEachOn(eng, items, func(*galois.Ctx[int32], int32) {}, schedOpts(det, p, nil)...)
		})
	}
	vals["galois.empty_task_det_ns"] = probe(func() float64 { return emptyTask(true) })
	vals["galois.empty_task_nondet_ns"] = probe(func() float64 { return emptyTask(false) })
	vals["galois.acquire_task_det_ns"] = probe(func() float64 {
		return nsPer(len(items), func() {
			galois.ForEachOn(eng, items, func(ctx *galois.Ctx[int32], i int32) {
				ctx.Acquire(&locs[i])
				ctx.OnCommit(func(*galois.Ctx[int32]) {})
			}, schedOpts(true, p, nil)...)
		})
	})
	eng.Close()
	vals["galois.engine_new_us"] = probe(func() float64 {
		n := 20
		return nsPer(n, func() {
			for i := 0; i < n; i++ {
				// Construction plus the first run, which spawns the workers
				// and allocates the per-type run state: what a job pays when
				// the server's engine pool misses.
				e := galois.NewEngine(galois.WithThreads(p))
				galois.ForEachOn(e, items[:64], func(*galois.Ctx[int32], int32) {}, schedOpts(true, p, nil)...)
				e.Close()
			}
		}) / 1e3
	})

	// psort and worklist.
	rnd := rng.New(rng.Mix64(env.seed ^ 0x70726f6265))
	keys := make([]uint64, 200_000/scale)
	for i := range keys {
		keys[i] = rnd.Uint64()
	}
	scratch := make([]uint64, len(keys))
	vals["psort.sort_ns_per_elem"] = probe(func() float64 {
		copy(scratch, keys)
		return nsPer(len(scratch), func() {
			psort.Sort(scratch, func(a, b uint64) int {
				switch {
				case a < b:
					return -1
				case a > b:
					return 1
				}
				return 0
			}, p)
		})
	})
	vals["worklist.pushpop_ns"] = probe(func() float64 {
		rounds := 200 / scale
		wl := worklist.NewChunkedLIFO[int](p)
		return nsPer(rounds*slots, func() {
			para.Run(p, func(tid int) {
				for r := 0; r < rounds; r++ {
					for i := 0; i < slots; i++ {
						wl.Push(tid, i)
					}
					for i := 0; i < slots; i++ {
						wl.Pop(tid)
					}
				}
			})
		})
	})

	// rescache: the read side (key derivation, hit) and the write side.
	n := 20_000 / scale
	cacheKeys := make([]rescache.Key, slots)
	vals["rescache.keyof_ns"] = probe(func() float64 {
		return nsPer(n, func() {
			for i := 0; i < n; i++ {
				cacheKeys[i%slots], _ = rescache.KeyOf("bfs", "g-d", "small", uint64(i%slots), 1)
			}
		})
	})
	cache := rescache.New(64 << 20)
	value := &struct{ fp string }{"0123456789abcdef"}
	vals["rescache.put_ns"] = probe(func() float64 {
		return nsPer(n, func() {
			for i := 0; i < n; i++ {
				cache.Put(cacheKeys[i%slots], value, 512)
			}
		})
	})
	vals["rescache.get_hit_ns"] = probe(func() float64 {
		return nsPer(n, func() {
			for i := 0; i < n; i++ {
				cache.Get(cacheKeys[i%slots])
			}
		})
	})
}
