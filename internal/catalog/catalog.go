// Package catalog is the one table of the apps this repository serves and
// measures: bfs, dmr, dt, mis, msf, pfp and sssp. Each entry says how a
// (scale, seed) cell becomes the app's input — through the canonical
// derivations in internal/inputs, the only place seeds are derived — and
// how to run it under each variant. The experiment harness, galoisd's job
// registry (serve.DefaultRegistry) and cmd/repro all read this table, so
// every app galoisd receipts is also one the harness's portability sweeps
// and schedule golden cover, and a harness cell and a served job of the
// same (scale, seed) run on byte-identical inputs.
package catalog

import (
	"unsafe"

	"galois"
	"galois/internal/apps/bfs"
	"galois/internal/apps/dmr"
	"galois/internal/apps/dt"
	"galois/internal/apps/mis"
	"galois/internal/apps/msf"
	"galois/internal/apps/pfp"
	"galois/internal/apps/sssp"
	"galois/internal/cachesim"
	"galois/internal/geom"
	"galois/internal/graph"
	"galois/internal/inputs"
	"galois/internal/mesh"
	"galois/internal/stats"
)

// App is one catalog entry: how to build its input for a (scale, seed)
// cell and how to run it. The scheduler variant of a Galois run arrives
// pre-translated in opts, so Run serves g-n, g-d and g-dnc alike.
type App struct {
	// Name is the app as it appears in a job spec and a harness cell.
	Name string
	// Family keys shared inputs: apps that run on the same input (bfs and
	// mis both run on the k-out graph) share a family, so it is built once.
	Family string
	// Paper marks the five apps of the paper's figures (§5).
	Paper bool
	// Exclusive marks inputs that runs consume or mutate in place (pfp's
	// flow network, dmr's mesh). Reset restores one before every run, so
	// every run still starts from the same deterministic state; a server
	// serializes runs on such an input.
	Exclusive bool
	// Build constructs the input for one (scale sizes, seed) cell through
	// the canonical derivations in internal/inputs.
	Build func(sc inputs.Scale, seed uint64) any
	// Size reports the heap bytes a built input keeps alive while it sits
	// in a cache — the capacity of its arrays, not what a run allocates
	// beside them. Nil charges nothing beyond a cache's own overhead.
	Size func(data any) int64
	// Reset restores an Exclusive input to its initial state. Nil for
	// shared read-only inputs.
	Reset func(data any)
	// Run executes one Galois run (g-n, g-d or g-dnc) over data with the
	// given scheduler options and returns the result fingerprint and run
	// statistics.
	Run func(data any, opts []galois.Option) (uint64, stats.Stats)
	// Seq is the best sequential baseline.
	Seq func(data any) (uint64, stats.Stats)
	// PBBS is the deterministic-by-construction variant; nil where the
	// paper has none (pfp) or the repository has none (sssp). profile, when
	// non-nil, records the abstract-location accesses of variants that go
	// through mark words (dt, dmr).
	PBBS func(data any, threads int, profile *cachesim.Tracer) (uint64, stats.Stats)
}

// Variants are the variants a harness cell names, in presentation order.
var Variants = []string{"seq", "g-n", "g-d", "g-dnc", "pbbs"}

// Has reports whether a has the given variant.
func (a *App) Has(variant string) bool {
	switch variant {
	case "seq":
		return a.Seq != nil
	case "pbbs":
		return a.PBBS != nil
	case "g-n", "g-d", "g-dnc":
		return a.Run != nil
	}
	return false
}

// Apps returns the catalog in name order, as fresh entries the caller may
// keep.
func Apps() []*App {
	out := make([]*App, len(table))
	for i := range table {
		a := table[i]
		out[i] = &a
	}
	return out
}

// ssspInput bundles the weighted graph with the scheduling options derived
// from its weight range (the OBIM delta heuristic for g-n runs).
type ssspInput struct {
	g *graph.Weighted
	o sssp.Options
}

// msfInput bundles the node count with the weighted edge list.
type msfInput struct {
	n     int
	edges []msf.WEdge
}

// dtInput bundles the canonical point set with the seed of its BRIO
// shuffle. The points are never mutated (BRIO copies), so dt's input is
// shared.
type dtInput struct {
	pts  []geom.Point
	seed uint64
}

// dmrInput carries the (size, seed) cell and the current mesh root.
// Refinement consumes the mesh, so rebuilding it is the reset: Build
// leaves root nil, Reset derives a pristine mesh through inputs.DMRMesh,
// and every run drops the refined mesh again (nobody reads it after its
// fingerprint) — at rest the cell is these few words.
type dmrInput struct {
	n    int
	seed uint64
	root *mesh.Element
}

// buildKOut and csrSize serve bfs and mis, which share the k-out graph.
func buildKOut(sc inputs.Scale, seed uint64) any {
	return inputs.BFSGraph(sc.BFSNodes, sc.BFSDegree, seed)
}

func csrSize(data any) int64 { return data.(*graph.CSR).Bytes() }

var table = []App{
	{
		Name: "bfs", Family: "kout-graph", Paper: true, Build: buildKOut, Size: csrSize,
		Run: func(data any, opts []galois.Option) (uint64, stats.Stats) {
			res := bfs.Galois(data.(*graph.CSR), 0, opts...)
			return res.Fingerprint(), res.Stats
		},
		Seq: func(data any) (uint64, stats.Stats) {
			res := bfs.Seq(data.(*graph.CSR), 0)
			return res.Fingerprint(), res.Stats
		},
		PBBS: func(data any, threads int, _ *cachesim.Tracer) (uint64, stats.Stats) {
			res := bfs.PBBS(data.(*graph.CSR), 0, threads)
			return res.Fingerprint(), res.Stats
		},
	},
	{
		Name: "dmr", Family: "dmr", Paper: true, Exclusive: true,
		Build: func(sc inputs.Scale, seed uint64) any {
			return &dmrInput{n: sc.DMRPoints, seed: seed}
		},
		Size: func(any) int64 { return int64(unsafe.Sizeof(dmrInput{})) },
		Reset: func(data any) {
			d := data.(*dmrInput)
			d.root = inputs.DMRMesh(d.n, d.seed)
		},
		Run: func(data any, opts []galois.Option) (uint64, stats.Stats) {
			d := data.(*dmrInput)
			res := dmr.Galois(d.root, dmr.DefaultQuality(), opts...)
			d.root = nil
			return res.Fingerprint(), res.Stats
		},
		Seq: func(data any) (uint64, stats.Stats) {
			d := data.(*dmrInput)
			res := dmr.Seq(d.root, dmr.DefaultQuality())
			d.root = nil
			return res.Fingerprint(), res.Stats
		},
		PBBS: func(data any, threads int, profile *cachesim.Tracer) (uint64, stats.Stats) {
			d := data.(*dmrInput)
			res := dmr.PBBS(d.root, dmr.DefaultQuality(), threads, 0, profile)
			d.root = nil
			return res.Fingerprint(), res.Stats
		},
	},
	{
		Name: "dt", Family: "dt", Paper: true,
		Build: func(sc inputs.Scale, seed uint64) any {
			// seed+3 is dt's BRIO-shuffle derivation.
			return &dtInput{pts: inputs.DTPoints(sc.DTPoints, seed), seed: seed + 3}
		},
		Size: func(data any) int64 {
			return int64(cap(data.(*dtInput).pts)) * int64(unsafe.Sizeof(geom.Point{}))
		},
		Run: func(data any, opts []galois.Option) (uint64, stats.Stats) {
			d := data.(*dtInput)
			res := dt.Galois(d.pts, d.seed, opts...)
			return res.Fingerprint(), res.Stats
		},
		Seq: func(data any) (uint64, stats.Stats) {
			d := data.(*dtInput)
			res := dt.Seq(d.pts, d.seed)
			return res.Fingerprint(), res.Stats
		},
		PBBS: func(data any, threads int, profile *cachesim.Tracer) (uint64, stats.Stats) {
			d := data.(*dtInput)
			res := dt.PBBS(d.pts, d.seed, threads, 0, profile)
			return res.Fingerprint(), res.Stats
		},
	},
	{
		Name: "mis", Family: "kout-graph", Paper: true, Build: buildKOut, Size: csrSize,
		Run: func(data any, opts []galois.Option) (uint64, stats.Stats) {
			res := mis.Galois(data.(*graph.CSR), opts...)
			return res.Fingerprint(), res.Stats
		},
		Seq: func(data any) (uint64, stats.Stats) {
			res := mis.Seq(data.(*graph.CSR))
			return res.Fingerprint(), res.Stats
		},
		PBBS: func(data any, threads int, _ *cachesim.Tracer) (uint64, stats.Stats) {
			res := mis.PBBS(data.(*graph.CSR), threads)
			return res.Fingerprint(), res.Stats
		},
	},
	{
		Name: "msf", Family: "msf",
		Build: func(sc inputs.Scale, seed uint64) any {
			n, edges := inputs.MSFEdges(sc.MSFNodes, sc.MSFDegree, sc.MSFMaxW, seed)
			return &msfInput{n: n, edges: edges}
		},
		Size: func(data any) int64 {
			return int64(cap(data.(*msfInput).edges)) * int64(unsafe.Sizeof(msf.WEdge{}))
		},
		Run: func(data any, opts []galois.Option) (uint64, stats.Stats) {
			d := data.(*msfInput)
			res := msf.Galois(d.n, d.edges, opts...)
			return res.Fingerprint(), res.Stats
		},
		Seq: func(data any) (uint64, stats.Stats) {
			d := data.(*msfInput)
			res := msf.Seq(d.n, d.edges)
			return res.Fingerprint(), res.Stats
		},
		PBBS: func(data any, threads int, _ *cachesim.Tracer) (uint64, stats.Stats) {
			d := data.(*msfInput)
			res := msf.PBBS(d.n, d.edges, threads)
			return res.Fingerprint(), res.Stats
		},
	},
	{
		Name: "pfp", Family: "pfp", Paper: true, Exclusive: true,
		Build: func(sc inputs.Scale, seed uint64) any {
			return inputs.PFPNetwork(sc.PFPNodes, sc.PFPDegree, seed)
		},
		Size:  func(data any) int64 { return data.(*pfp.Network).Bytes() },
		Reset: func(data any) { data.(*pfp.Network).Reset() },
		Run: func(data any, opts []galois.Option) (uint64, stats.Stats) {
			val, st := pfp.Galois(data.(*pfp.Network), opts...)
			return uint64(val), st
		},
		Seq: func(data any) (uint64, stats.Stats) {
			val, st := pfp.Seq(data.(*pfp.Network))
			return uint64(val), st
		},
	},
	{
		Name: "sssp", Family: "sssp",
		Build: func(sc inputs.Scale, seed uint64) any {
			return &ssspInput{
				g: inputs.SSSPGraph(sc.SSSPNodes, sc.SSSPDegree, sc.SSSPMaxW, seed),
				o: sssp.DefaultOptions(sc.SSSPMaxW),
			}
		},
		Size: func(data any) int64 { return data.(*ssspInput).g.Bytes() },
		Run: func(data any, opts []galois.Option) (uint64, stats.Stats) {
			d := data.(*ssspInput)
			res := sssp.Galois(d.g, 0, d.o, opts...)
			return res.Fingerprint(), res.Stats
		},
		Seq: func(data any) (uint64, stats.Stats) {
			res := sssp.Seq(data.(*ssspInput).g, 0)
			return res.Fingerprint(), res.Stats
		},
	},
}
