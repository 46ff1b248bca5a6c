// Package dmr implements the paper's Delaunay mesh refinement benchmark
// (§4.1): iteratively fix triangles whose minimum angle is below 30° by
// inserting circumcenters (or splitting encroached boundary segments), in
// four variants:
//
//   - Seq: sequential refinement with a simple worklist.
//   - Galois (non-deterministic or DIG-scheduled): the Lonestar cavity
//     formulation — one task per bad triangle; the task builds its cavity
//     (acquiring everything it reads or rewires), retriangulates at
//     commit, and pushes newly created bad triangles.
//   - PBBS: handwritten determinism — rounds of deterministic reservations
//     over the current bad-triangle set.
//
// Unlike bfs/dt, the refined mesh genuinely depends on the schedule (which
// circumcenters get inserted), so the deterministic variants' fingerprints
// are the paper's portability claim made observable.
package dmr

import (
	"galois"
	"galois/internal/cachesim"
	"galois/internal/detres"
	"galois/internal/geom"
	"galois/internal/mesh"
	"galois/internal/rng"
	"galois/internal/stats"
)

// Quality is the refinement criterion.
type Quality struct {
	// CosBound is the cosine of the minimum-angle bound (default 30°).
	CosBound float64
	// MinEdge2 is the squared shortest-edge floor below which triangles
	// are never refined — a safety valve, since 30° exceeds Ruppert's
	// termination guarantee (default 1e-10, i.e. edges of 1e-5 in the
	// unit square).
	MinEdge2 float64
}

// DefaultQuality is the paper's 30-degree bound with the default floor.
func DefaultQuality() Quality {
	return Quality{CosBound: geom.Cos30, MinEdge2: 1e-10}
}

// MakeInput builds the benchmark input: a Delaunay mesh of n random points
// in the (slightly shrunken, so no input point sits on the boundary) unit
// square, guarded by boundary segments — the paper's "Delaunay triangulated
// mesh of randomly selected points from the unit square".
func MakeInput(n int, seed uint64) *mesh.Element {
	pts := geom.UniformPoints(n, seed)
	for i := range pts {
		pts[i].X = 0.02 + 0.96*pts[i].X
		pts[i].Y = 0.02 + 0.96*pts[i].Y
	}
	root, _ := mesh.BuildDelaunaySeq(mesh.NewUnitSquare(), geom.BRIO(pts, seed+1))
	return root
}

// Result is the output of one refinement run.
type Result struct {
	// Root is a live element of the refined mesh.
	Root *mesh.Element
	// Stats describes the run.
	Stats stats.Stats
}

// Fingerprint canonically hashes the refined mesh.
func (r *Result) Fingerprint() uint64 { return mesh.Fingerprint(r.Root, false) }

// Check validates the refined mesh: structurally conforming, locally
// Delaunay, and free of bad triangles.
func (r *Result) Check(q Quality) error {
	if err := mesh.CheckConforming(r.Root); err != nil {
		return err
	}
	if err := mesh.CheckDelaunay(r.Root); err != nil {
		return err
	}
	return mesh.CheckNoBad(r.Root, q.CosBound, q.MinEdge2)
}

// badTriangles scans the mesh for triangles violating q.
func badTriangles(root *mesh.Element, q Quality) []*mesh.Element {
	var bad []*mesh.Element
	for _, e := range mesh.Triangles(root) {
		if e.IsBad(q.CosBound, q.MinEdge2) {
			bad = append(bad, e)
		}
	}
	return bad
}

// refineOnce performs the read phase for one bad triangle: skip it if it is
// stale, otherwise build its cavity into cav. It reports whether it built
// one. Shared by all variants.
func refineOnce(cav *mesh.Cavity, el *mesh.Element, q Quality, acq mesh.Acquirer) bool {
	acq(el)
	if el.Dead || !el.IsBad(q.CosBound, q.MinEdge2) {
		return false
	}
	mesh.BuildRefinement(cav, el, acq)
	return true
}

// applyCavity retriangulates and returns the follow-up work: new bad
// triangles, plus the original triangle if a segment split left it alive
// and still bad. The result is filtered in place from the slice
// Retriangulate returned, so like that slice it belongs to cav: a holder
// must keep cav alive and unapplied while it reads it (PBBS keeps next[i]
// only while cav[i] lives). It has room for el: el survives only a segment
// split, whose two created half-segments are never follow-up work.
func applyCavity(el *mesh.Element, cav *mesh.Cavity, q Quality) []*mesh.Element {
	created := cav.Retriangulate(nil)
	followUp := created[:0]
	for _, t := range created {
		if !t.IsSegment() && t.IsBad(q.CosBound, q.MinEdge2) {
			followUp = append(followUp, t)
		}
	}
	if !el.Dead && el.IsBad(q.CosBound, q.MinEdge2) {
		followUp = append(followUp, el)
	}
	return followUp
}

// Seq refines the mesh rooted at root sequentially.
func Seq(root *mesh.Element, q Quality) *Result {
	col := stats.NewCollector(1)
	col.Start()
	work := badTriangles(root, q)
	last := root
	var cav mesh.Cavity
	for len(work) > 0 {
		el := work[len(work)-1]
		work = work[:len(work)-1]
		if !refineOnce(&cav, el, q, mesh.NoAcquire) {
			col.Commit(0)
			continue
		}
		work = append(work, applyCavity(el, &cav, q)...)
		last = cav.Members[len(cav.Members)-1]
		col.Commit(0)
	}
	col.Stop()
	for last.Dead {
		last = last.Repl
	}
	return &Result{Root: last, Stats: col.Snapshot()}
}

// Galois refines the mesh under the given scheduler options.
//
// The speculative variant takes no worklist hint, so it runs on the
// default chunked LIFO, the Lonestar choice for refinement: the bad
// triangles a commit creates are popped next, while their neighbourhood is
// still in cache.
func Galois(root *mesh.Element, q Quality, opts ...galois.Option) *Result {
	initial := badTriangles(root, q)
	anchor := root
	// One commit handler for the loop: a task builds its cavity into its
	// plan, and the handler applies the plan of the task it commits to that
	// task's triangle.
	commit := func(c *galois.Ctx[*mesh.Element]) {
		for _, nb := range applyCavity(c.Item(), galois.PlanOf[mesh.Cavity](c), q) {
			c.Push(nb)
		}
	}
	st := galois.ForEach(initial, func(ctx *galois.Ctx[*mesh.Element], el *mesh.Element) {
		cav := galois.PlanOf[mesh.Cavity](ctx)
		if !refineOnce(cav, el, q, func(e *mesh.Element) { ctx.Acquire(&e.Lockable) }) {
			return // stale or unrefinable: no-op commit
		}
		ctx.OnCommit(commit)
	}, opts...)
	for anchor.Dead {
		anchor = anchor.Repl
	}
	return &Result{Root: anchor, Stats: st}
}

// pbbsStep adapts refinement to deterministic reservations over one round's
// bad-triangle set.
type pbbsStep struct {
	q     Quality
	items []*mesh.Element
	cav   []*mesh.Cavity
	// next collects follow-up work per item (merged after the round in
	// item order, keeping the next round's order deterministic).
	next [][]*mesh.Element
}

func (s *pbbsStep) Reserve(i int, r *detres.Reserver) bool {
	if s.cav[i] == nil {
		s.cav[i] = new(mesh.Cavity) // rebuilt in place if the item retries
	}
	return refineOnce(s.cav[i], s.items[i], s.q, func(e *mesh.Element) { r.Reserve(&e.Lockable) })
}

func (s *pbbsStep) Commit(i int) {
	s.next[i] = applyCavity(s.items[i], s.cav[i], s.q)
}

// PBBS refines the mesh with rounds of deterministic reservations on
// nthreads threads; granularity is the fixed PBBS round size and pro an
// optional locality tracer (paper §5.4, nil for none).
func PBBS(root *mesh.Element, q Quality, nthreads, granularity int, pro *cachesim.Tracer) *Result {
	work := badTriangles(root, q)
	anchor := root
	var agg stats.Stats
	shuffle := rng.New(0x9e3779b9)
	for len(work) > 0 {
		// PBBS permutes the work items: neighbors in discovery order
		// are spatial neighbors, and a prefix of them would conflict
		// wholesale. The permutation is seeded, hence deterministic.
		shuffle.Shuffle(len(work), func(i, j int) { work[i], work[j] = work[j], work[i] })
		step := &pbbsStep{
			q:     q,
			items: work,
			cav:   make([]*mesh.Cavity, len(work)),
			next:  make([][]*mesh.Element, len(work)),
		}
		st := detres.For(len(work), step, detres.Options{
			Threads: nthreads, Granularity: granularity, Profile: pro,
		})
		agg = agg.Add(st)
		work = work[:0]
		for _, f := range step.next {
			work = append(work, f...)
		}
	}
	for anchor.Dead {
		anchor = anchor.Repl
	}
	return &Result{Root: anchor, Stats: agg}
}
