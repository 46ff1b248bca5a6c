// Package dt implements the paper's Delaunay triangulation benchmark
// (§4.1): incremental Bowyer–Watson insertion with biased randomized
// insertion order (BRIO), in four variants:
//
//   - Seq: sequential incremental insertion in BRIO order.
//   - Galois (non-deterministic or DIG-scheduled): one task per point. A
//     task finds its point's triangle through the point-location-by-
//     association structure, builds the insertion cavity (acquiring every
//     element it reads or rewires), and retriangulates at commit.
//   - PBBS: handwritten determinism via deterministic reservations
//     (internal/detres), the structure of the PBBS incremental dt code.
//
// The Delaunay triangulation of points in general position is unique, so
// every variant produces the same mesh — which the tests exploit — while
// the paper's determinism property concerns the schedule: the DIG and PBBS
// variants execute identical rounds for every thread count.
package dt

import (
	"sync/atomic"

	"galois"
	"galois/internal/cachesim"
	"galois/internal/detres"
	"galois/internal/geom"
	"galois/internal/mesh"
	"galois/internal/rng"
	"galois/internal/stats"
)

// Result is the output of one triangulation run.
type Result struct {
	// Root is a live element of the final mesh.
	Root *mesh.Element
	// Inserted is the number of points actually inserted (duplicates of
	// existing vertices are skipped).
	Inserted int
	// Stats describes the run.
	Stats stats.Stats
}

// Fingerprint canonically hashes the triangulation (super triangles
// excluded).
func (r *Result) Fingerprint() uint64 { return mesh.Fingerprint(r.Root, true) }

// Seq triangulates pts sequentially in BRIO order.
func Seq(pts []geom.Point, seed uint64) *Result {
	ordered := geom.BRIO(pts, seed)
	col := stats.NewCollector(1)
	col.Start()
	var cav mesh.Cavity
	hint := mesh.NewSuperTriangle()
	inserted := 0
	for _, p := range ordered {
		var ok bool
		hint, ok = mesh.InsertPointSeq(&cav, hint, p)
		if ok {
			inserted++
		}
		col.Commit(0)
	}
	col.Stop()
	return &Result{Root: hint, Inserted: inserted, Stats: col.Snapshot()}
}

// assoc is the shared point-location-by-association state: pointTri[i]
// points at (a recent ancestor of) the triangle containing point i.
type assoc struct {
	pts      []geom.Point
	pointTri []atomic.Pointer[mesh.Element]
	inserted atomic.Int64
	// moved, if set, counts the associated points commits move
	// (export_test.go reads it; nothing else sets it).
	moved *atomic.Int64
}

func newAssoc(pts []geom.Point) (*assoc, *mesh.Element) {
	root := mesh.NewSuperTriangle()
	a := &assoc{pts: pts, pointTri: make([]atomic.Pointer[mesh.Element], len(pts))}
	root.Assoc = make([]int32, len(pts))
	for i := range pts {
		root.Assoc[i] = int32(i)
		a.pointTri[i].Store(root)
	}
	return a, root
}

// insertBody performs the read phase for point i: resolve the association
// hint, locate, and build the cavity into cav. It reports false if the point
// is a duplicate vertex.
func (a *assoc) insertBody(cav *mesh.Cavity, i int32, acq mesh.Acquirer) bool {
	start := a.pointTri[i].Load()
	tri, onVertex := mesh.Locate(start, a.pts[i], acq)
	if onVertex {
		return false
	}
	mesh.BuildInsertion(cav, tri, a.pts[i], acq)
	return true
}

// commitCavity applies a built cavity and refreshes the association of
// every point that lived in the killed triangles. The created slice belongs
// to cav. Every list is read before the first hint is published: through a
// hint, a g-n task holding nothing of cav can commit over a new element.
func (a *assoc) commitCavity(cav *mesh.Cavity) {
	created := cav.Retriangulate(a.pts)
	var buf [16][]int32 // more than nearly every cavity creates; append spills the rest
	lists, n := buf[:0], 0
	for _, e := range created {
		lists, n = append(lists, e.Assoc), n+len(e.Assoc)
	}
	for k, e := range created {
		for _, idx := range lists[k] {
			a.pointTri[idx].Store(e)
		}
	}
	if a.moved != nil {
		a.moved.Add(int64(n))
	}
	a.inserted.Add(1)
}

func (a *assoc) root() *mesh.Element {
	e := a.pointTri[0].Load()
	for e.Dead {
		e = e.Repl
	}
	return e
}

// Galois triangulates pts under the given scheduler options; the insertion
// order (task priority under DIG) is the BRIO order derived from seed.
//
// The variant runs with a FIFO worklist hint (see galois.WithFIFO), as the
// Galois original does: the speculative scheduler then inserts roughly in
// BRIO order, coarse rounds first. Under LIFO it would insert the finest
// round first, so every early cavity redistributes long association lists:
// at one thread the points moved per insertion grow by about 1.5× per
// doubling of the input under LIFO and by about 1.1× under FIFO
// (TestScalingGN).
func Galois(pts []geom.Point, seed uint64, opts ...galois.Option) *Result {
	return galoisWith(pts, seed, nil, opts...)
}

// galoisWith is Galois, counting into moved (if set) the associated points
// its commits move.
func galoisWith(pts []geom.Point, seed uint64, moved *atomic.Int64, opts ...galois.Option) *Result {
	ordered := geom.BRIO(pts, seed)
	a, _ := newAssoc(ordered)
	a.moved = moved
	opts = append([]galois.Option{galois.WithFIFO()}, opts...)
	items := make([]int32, len(ordered))
	for i := range items {
		items[i] = int32(i)
	}
	// One commit handler for the loop: a task builds its cavity into its
	// plan, and the handler applies the plan of the task it commits.
	commit := func(c *galois.Ctx[int32]) { a.commitCavity(galois.PlanOf[mesh.Cavity](c)) }
	st := galois.ForEach(items, func(ctx *galois.Ctx[int32], i int32) {
		cav := galois.PlanOf[mesh.Cavity](ctx)
		if !a.insertBody(cav, i, func(e *mesh.Element) { ctx.Acquire(&e.Lockable) }) {
			return // duplicate point: no-op commit
		}
		ctx.OnCommit(commit)
	}, opts...)
	return &Result{Root: a.root(), Inserted: int(a.inserted.Load()), Stats: st}
}

// pbbsStep adapts the association-based insertion to deterministic
// reservations.
type pbbsStep struct {
	a   *assoc
	cav []*mesh.Cavity // per item, built at reserve time
}

func (s *pbbsStep) Reserve(i int, r *detres.Reserver) bool {
	if s.cav[i] == nil {
		s.cav[i] = new(mesh.Cavity) // rebuilt in place if the item retries
	}
	return s.a.insertBody(s.cav[i], int32(i), func(e *mesh.Element) { r.Reserve(&e.Lockable) })
}

func (s *pbbsStep) Commit(i int) { s.a.commitCavity(s.cav[i]) }

// PBBS triangulates pts with the handwritten deterministic-reservations
// algorithm on nthreads threads. granularity is the PBBS codes' fixed round
// size (<=0 for the default); pro is an optional locality tracer (paper
// §5.4, nil for none).
func PBBS(pts []geom.Point, seed uint64, nthreads, granularity int, pro *cachesim.Tracer) *Result {
	// The PBBS dt randomizes its points offline (§4.1) rather than using
	// BRIO: under round-based reservations, spatially-sorted prefixes
	// would conflict wholesale (the §3.3 locality observation), so the
	// handwritten code wants a spatially *uniform* prefix.
	ordered := append([]geom.Point(nil), pts...)
	rng.New(seed).Shuffle(len(ordered), func(i, j int) { ordered[i], ordered[j] = ordered[j], ordered[i] })
	a, _ := newAssoc(ordered)
	step := &pbbsStep{a: a, cav: make([]*mesh.Cavity, len(ordered))}
	st := detres.For(len(ordered), step, detres.Options{
		Threads:     nthreads,
		Granularity: granularity,
		// Incremental insertion supports parallelism proportional to
		// the current mesh size; PBBS's dt ramps its prefix the same
		// way.
		Ramp:    true,
		Profile: pro,
	})
	return &Result{Root: a.root(), Inserted: int(a.inserted.Load()), Stats: st}
}
