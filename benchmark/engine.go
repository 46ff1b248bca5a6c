package main

import (
	"runtime"

	"galois"
	"galois/internal/apps/bfs"
	"galois/internal/apps/dmr"
	"galois/internal/apps/dt"
	"galois/internal/apps/mis"
	"galois/internal/geom"
	"galois/internal/graph"
	"galois/internal/inputs"
	"galois/internal/mesh"
	"galois/internal/stats"
)

// engineSizes are the in-process input sizes. They are fixed constants, so
// an op is the same work on both sides of a comparison; they are sized so a
// cell collects 40 to 50 ops in a 15 s window on the 2-core authoring box,
// counting what goes on between ops: collection, the mesh rebuild, and the
// canonical mesh fingerprint, which costs about as much as the run it checks.
type engineSizes struct {
	graphNodes, graphDegree int
	dtPoints, dmrPoints     int
}

func (e *runEnv) engineSizes() engineSizes {
	if e.smoke {
		return engineSizes{graphNodes: 4_000, graphDegree: 5, dtPoints: 600, dmrPoints: 300}
	}
	return engineSizes{graphNodes: 150_000, graphDegree: 5, dtPoints: 6_000, dmrPoints: 3_000}
}

// engineTailQ is the tail percentile of the in-process workloads: with some
// 40 ops per cell, p75 is the highest that leaves ten samples beyond it.
const engineTailQ = 0.75

// appOut is what one app run hands back: the scheduler's counters, the
// result's fingerprint (computed outside the timed region), and for
// variants with many legal outputs a validity check in its place.
type appOut struct {
	st    stats.Stats
	fp    func() uint64
	check func() error
}

// engineCell is one (kind, variant) of an in-process workload.
type engineCell struct {
	kind string
	det  bool
	// prepare builds the op's private input, untimed, for apps that consume
	// theirs (dmr refines its mesh in place). Nil when the input is shared.
	// The cell's ops rotate through variants different inputs (0 means 1).
	prepare  func(variant int) any
	variants int
	run      func(in any, opts []galois.Option) appOut
	// seq is the plain sequential baseline of the same problem.
	seq func(in any)
	// fpIsCheck: the op is checked by comparing its fingerprint with the
	// deterministic threads=1 reference (every g-d cell, and bfs g-n, whose
	// distances are confluent). Otherwise appOut.check decides.
	fpIsCheck bool
}

func (c engineCell) name() string {
	if c.det {
		return c.kind + "/g-d"
	}
	return c.kind + "/g-n"
}

func schedOpts(det bool, threads int, eng *galois.Engine) []galois.Option {
	sched := galois.NonDeterministic
	if det {
		sched = galois.Deterministic
	}
	opts := []galois.Option{galois.WithSched(sched), galois.WithThreads(threads)}
	if eng != nil {
		opts = append(opts, galois.WithEngine(eng))
	}
	return opts
}

func bfsCell(g *graph.CSR, det bool) engineCell {
	return engineCell{kind: "bfs", det: det, fpIsCheck: true,
		run: func(_ any, opts []galois.Option) appOut {
			res := bfs.Galois(g, 0, opts...)
			return appOut{st: res.Stats, fp: res.Fingerprint}
		},
		seq: func(any) { bfs.Seq(g, 0) },
	}
}

func misCell(g *graph.CSR, det bool) engineCell {
	return engineCell{kind: "mis", det: det, fpIsCheck: det,
		run: func(_ any, opts []galois.Option) appOut {
			res := mis.Galois(g, opts...)
			return appOut{st: res.Stats, fp: res.Fingerprint, check: func() error { return res.Check(g) }}
		},
		seq: func(any) { mis.Seq(g) },
	}
}

func dtCell(pts []geom.Point, seed uint64) engineCell {
	// seed+3 is the harness's and the server's BRIO-shuffle derivation for
	// dt, kept so these fingerprints match theirs.
	return engineCell{kind: "dt", det: true, fpIsCheck: true,
		run: func(_ any, opts []galois.Option) appOut {
			res := dt.Galois(pts, seed+3, opts...)
			return appOut{st: res.Stats, fp: res.Fingerprint}
		},
		seq: func(any) { dt.Seq(pts, seed+3) },
	}
}

// dmrVariants is how many meshes a dmr cell rotates through. How much
// refinement a random mesh needs varies by several percent from seed to
// seed at these sizes; a run that averages over a few meshes repeats better
// from one seed to the next than a run that refines one mesh over and over.
const dmrVariants = 8

func dmrCell(points int, seed uint64, det bool) engineCell {
	q := dmr.DefaultQuality()
	return engineCell{kind: "dmr", det: det, fpIsCheck: det, variants: dmrVariants,
		// seed*dmrVariants+v: distinct run seeds never share a mesh.
		prepare: func(v int) any { return inputs.DMRMesh(points, seed*dmrVariants+uint64(v)) },
		run: func(in any, opts []galois.Option) appOut {
			res := dmr.Galois(in.(*mesh.Element), q, opts...)
			return appOut{st: res.Stats, fp: res.Fingerprint, check: func() error { return res.Check(q) }}
		},
		seq: func(in any) { dmr.Seq(in.(*mesh.Element), q) },
	}
}

// engineOp is the record of one in-process op.
type engineOp struct {
	cell    int
	variant int
	traced  bool
	latMS   float64
	prepMS  float64
	fpMS    float64
	allocs  uint64
	bytes   uint64
	cpuS    float64
	st      stats.Stats
}

// engineBench is one in-process workload after set-up.
type engineBench struct {
	env   *runEnv
	cells []engineCell
	// refs[cell][variant] is the deterministic threads=1 fingerprint of the
	// cell's input variant (empty for cells checked by their own validity
	// check); count[cell] is how many ops the cell has run, which picks the
	// next variant.
	refs  [][]uint64
	count []int
	// refDigest folds the references into the value pinned in goldens.
	refDigest uint64
	eng       *galois.Engine
	// buildMS is how long set-up spent building inputs.
	buildMS float64
	res     *runResult
	ops     []engineOp
	nextOp  int
}

// newEngineBench sets an in-process workload up to its first timed op:
// inputs (built by mk under an inputs.build span), the reused engine, the
// threads=1 reference of every cell checked by fingerprint, and the
// warm-up ops.
func newEngineBench(env *runEnv, res *runResult, tr *tracer, mk func() []engineCell) *engineBench {
	var cells []engineCell
	start := now()
	tr.around("inputs.build", -1, -1, func() { cells = mk() })
	buildMS := msSince(start)
	refs, refDigest := references(cells)
	b := &engineBench{env: env, res: res, cells: cells, buildMS: buildMS,
		refs: refs, refDigest: refDigest, count: make([]int, len(cells)),
		eng: galois.NewEngine(galois.WithThreads(env.threads))}
	for w := 0; w < env.warmups(); w++ {
		for i := range b.cells {
			b.op(i, nil)
		}
	}
	b.ops = b.ops[:0] // warm-ups are checked but not measured
	return b
}

// references runs every input variant of every cell checked by fingerprint
// under the deterministic scheduler at one thread, and returns the
// fingerprints and their digest: what each op at P threads must reproduce.
func references(cells []engineCell) ([][]uint64, uint64) {
	refs := make([][]uint64, len(cells))
	var all []uint64
	for i, c := range cells {
		for v := 0; c.fpIsCheck && v < max(c.variants, 1); v++ {
			var in any
			if c.prepare != nil {
				in = c.prepare(v)
			}
			refs[i] = append(refs[i], c.run(in, schedOpts(true, 1, nil)).fp())
		}
		all = append(all, refs[i]...)
	}
	return refs, digest(all)
}

func (b *engineBench) close() { b.eng.Close() }

// op runs one op of cell ci to a checked fingerprint. The garbage of the
// previous op is collected first, outside the timed region: dt and dmr
// allocate millions of objects per run, and without this the previous op's
// garbage decides the next op's time.
func (b *engineBench) op(ci int, tr *tracer) {
	c := b.cells[ci]
	id := b.nextOp
	b.nextOp++
	variant := b.count[ci] % max(c.variants, 1)
	b.count[ci]++
	var in any
	prepStart := now()
	if c.prepare != nil {
		tr.around("inputs.prepare", id, -1, func() { in = c.prepare(variant) })
	}
	prepMS := msSince(prepStart)
	runtime.GC()
	opts := schedOpts(c.det, b.env.threads, b.eng)

	m0, b0 := heapCounts()
	u0 := usage()
	start := now()
	out := c.run(in, opts)
	end := now()
	u1 := usage()
	m1, b1 := heapCounts()

	rec := engineOp{cell: ci, variant: variant, traced: tr != nil, latMS: ms(end.Sub(start)), prepMS: prepMS,
		allocs: m1 - m0, bytes: b1 - b0, cpuS: u1.cpuS - u0.cpuS, st: out.st}
	if tr != nil {
		// The phase totals come from counters, not from calls the benchmark
		// can bracket, so they are laid end to end from the run's start.
		run := tr.add("core.run", id, -1, tr.at(start), tr.at(end))
		at := tr.at(start)
		for _, ph := range []struct {
			name string
			ns   int64
		}{{"core.inspect", out.st.PhaseInspectNS}, {"core.execute", out.st.PhaseExecuteNS}, {"core.coordinate", out.st.PhaseCoordinateNS}} {
			tr.add(ph.name, id, run, at, at+ph.ns)
			at += ph.ns
		}
	}

	fpStart := now()
	fp := out.fp()
	rec.fpMS = msSince(fpStart)
	tr.add("apps.fingerprint", id, -1, tr.at(fpStart), tr.at(now()))

	b.res.Attempted++
	switch {
	case c.fpIsCheck && fp != b.refs[ci][variant]:
		b.res.fail("%s op %d: fingerprint %016x, threads=1 reference %016x", c.name(), id, fp, b.refs[ci][variant])
	case !c.fpIsCheck:
		if err := out.check(); err != nil {
			b.res.fail("%s op %d: output check: %v", c.name(), id, err)
		}
	}
	b.ops = append(b.ops, rec)
}

// window runs whole sweeps over the cells until seconds have passed, so
// every cell has the same number of samples. In a traced pass (tr non-nil)
// sweeps alternate untraced and traced, for the overhead pair; a smoke run
// is one sweep.
func (b *engineBench) window(seconds float64, tr *tracer) {
	start := now()
	for sweep := 0; ; sweep++ {
		t := tr
		if sweep%2 == 0 && !b.env.smoke {
			t = nil
		}
		for ci := range b.cells {
			b.op(ci, t)
		}
		if now().Sub(start).Seconds() >= seconds || b.env.smoke {
			return
		}
	}
}

// samples groups the recorded latencies by cell; traced selects which pass.
func (b *engineBench) samples(traced bool) []cellSamples {
	out := make([]cellSamples, len(b.cells))
	for i, c := range b.cells {
		out[i].name = c.name()
	}
	for _, op := range b.ops {
		if op.traced == traced {
			out[op.cell].ms = append(out[op.cell].ms, op.latMS)
			out[op.cell].variant = append(out[op.cell].variant, op.variant)
		}
	}
	return out
}

// runEngine is the untraced run of an in-process workload: set up (several
// times, for a steady setup_s), then the timed window, then the end-to-end
// metrics.
func runEngine(env *runEnv, name string, mk func() []engineCell) (*runResult, error) {
	res := &runResult{Workload: name, Trace: env.trace}
	if env.trace {
		return res, traceEngine(env, res, mk)
	}
	var b *engineBench
	var setups []float64
	for i := 0; i < env.setupReps(); i++ {
		if b != nil {
			// The previous set-up's garbage is not this one's memory.
			b.close()
			runtime.GC()
		}
		start := now()
		b = newEngineBench(env, res, nil, mk)
		setups = append(setups, now().Sub(start).Seconds())
	}
	defer b.close()
	checkGolden(env, res, name, b.refDigest)

	b.window(env.seconds, nil)

	// The timed window of an in-process workload is the time inside ops:
	// collection, mesh rebuilds and output checks between ops are the
	// benchmark's, not the engine's.
	w := window{ops: len(b.ops)}
	for _, op := range b.ops {
		w.allocs += op.allocs
		w.cpuS += op.cpuS
		w.seconds += op.latMS / 1e3
	}
	res.setEndToEnd(env, b.samples(false), engineTailQ, setups, w)
	return res, nil
}

func runEngineFinegrain(env *runEnv) (*runResult, error) {
	sz := env.engineSizes()
	return runEngine(env, "engine-finegrain", func() []engineCell {
		g := inputs.BFSGraph(sz.graphNodes, sz.graphDegree, env.seed)
		return []engineCell{bfsCell(g, true), misCell(g, true)}
	})
}

func runEngineMesh(env *runEnv) (*runResult, error) {
	sz := env.engineSizes()
	return runEngine(env, "engine-mesh", func() []engineCell {
		pts := inputs.DTPoints(sz.dtPoints, env.seed)
		return []engineCell{dtCell(pts, env.seed), dmrCell(sz.dmrPoints, env.seed, true)}
	})
}

// runEngineNondet leaves dt g-n out: millions of aborts at two threads make
// it pathological and noisy, and it would drown the other cells' signal.
func runEngineNondet(env *runEnv) (*runResult, error) {
	sz := env.engineSizes()
	return runEngine(env, "engine-nondet", func() []engineCell {
		g := inputs.BFSGraph(sz.graphNodes, sz.graphDegree, env.seed)
		return []engineCell{bfsCell(g, false), misCell(g, false), dmrCell(sz.dmrPoints, env.seed, false)}
	})
}
