package serve

import (
	"sync"
	"unsafe"

	"galois"
	"galois/internal/apps/bfs"
	"galois/internal/apps/dmr"
	"galois/internal/apps/dt"
	"galois/internal/apps/mis"
	"galois/internal/apps/msf"
	"galois/internal/apps/pfp"
	"galois/internal/apps/sssp"
	"galois/internal/geom"
	"galois/internal/graph"
	"galois/internal/inputs"
	"galois/internal/mesh"
	"galois/internal/stats"
)

// Kind is one registered job kind: how to build its input for a (scale,
// seed) cell and how to run it. Run closures wrap the existing app entry
// points; the scheduler variant arrives pre-translated in opts, so a Kind
// is variant-agnostic.
type Kind struct {
	// Name is the job kind as it appears in Spec.Kind.
	Name string
	// Family keys the input cache. Kinds that operate on the same input
	// (bfs and mis both run on the k-out graph) share a family so the
	// server builds the input once.
	Family string
	// Exclusive marks inputs that runs mutate in place (pfp's flow
	// network). The server then serializes jobs on that input and calls
	// Reset before each run, so every job still starts from the same
	// deterministic state.
	Exclusive bool
	// Build constructs the input for one (scale sizes, seed) cell through
	// the canonical derivations in internal/inputs.
	Build func(sc inputs.Scale, seed uint64) any
	// Size reports the heap bytes a built input keeps alive while it sits
	// in the input cache — the capacity of its arrays, not what a run
	// allocates beside them. It is what the cache charges against its byte
	// budget; nil charges the fixed per-entry overhead only.
	Size func(data any) int64
	// Reset restores an Exclusive input to its initial state. Nil for
	// shared read-only inputs.
	Reset func(data any)
	// Run executes one job over data with the given scheduler options and
	// returns the result fingerprint and run statistics.
	Run func(data any, opts []galois.Option) (uint64, stats.Stats)
}

// Registry maps job-kind names to their runnable definitions. Lookup is
// lock-free after construction-time registration; tests may register extra
// kinds before the server starts serving.
type Registry struct {
	mu    sync.RWMutex
	kinds map[string]*Kind
	names []string // registration order, for deterministic listings
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{kinds: make(map[string]*Kind)} }

// Register adds k; re-registering a name panics (a config bug, not a
// runtime condition).
func (r *Registry) Register(k *Kind) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.kinds[k.Name]; dup {
		panic("serve: duplicate job kind " + k.Name)
	}
	if k.Family == "" {
		k.Family = k.Name
	}
	r.kinds[k.Name] = k
	r.names = append(r.names, k.Name)
}

// Lookup returns the kind registered under name, or nil.
func (r *Registry) Lookup(name string) *Kind {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.kinds[name]
}

// Names returns the registered kind names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.names...)
}

// ssspData bundles the weighted graph with the scheduling options derived
// from its weight range (the OBIM delta heuristic for g-n runs).
type ssspData struct {
	g *graph.Weighted
	o sssp.Options
}

// msfInput bundles the node count with the weighted edge list.
type msfInput struct {
	n     int
	edges []msf.WEdge
}

// dtInput bundles the canonical point set with the seed dt.Galois needs
// for its BRIO shuffle. The points are never mutated (BRIO copies), so dt
// is a shared, cacheable kind.
type dtInput struct {
	pts  []geom.Point
	seed uint64
}

// dmrInput carries the (size, seed) cell and the current mesh root.
// Refinement consumes the mesh, so rebuilding it IS the reset: Build
// leaves root nil, Reset — which the server calls before every run of
// an Exclusive kind — derives a pristine mesh through inputs.DMRMesh, and
// Run drops the refined mesh again: at rest the cell is these few words.
type dmrInput struct {
	n    int
	seed uint64
	root *mesh.Element
}

// DefaultRegistry returns all seven paper/Lonestar apps: the stateless
// kinds (bfs, mis, sssp, msf, dt) plus the in-place mutators (pfp, dmr),
// which go through the Exclusive-input machinery — the server serializes
// their runs and resets the input before each one. A job's receipt
// fingerprints the result, not the bulk output, so even the mesh apps fit
// request/response serving; clients that want the mesh itself use a
// session (internal/session) instead.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	csrSize := func(data any) int64 { return data.(*graph.CSR).Bytes() }
	r.Register(&Kind{
		Name:   "bfs",
		Family: "kout-graph",
		Build: func(sc inputs.Scale, seed uint64) any {
			return inputs.BFSGraph(sc.BFSNodes, sc.BFSDegree, seed)
		},
		Size: csrSize,
		Run: func(data any, opts []galois.Option) (uint64, stats.Stats) {
			res := bfs.Galois(data.(*graph.CSR), 0, opts...)
			return res.Fingerprint(), res.Stats
		},
	})
	r.Register(&Kind{
		Name:   "mis",
		Family: "kout-graph",
		Build: func(sc inputs.Scale, seed uint64) any {
			return inputs.BFSGraph(sc.BFSNodes, sc.BFSDegree, seed)
		},
		Size: csrSize,
		Run: func(data any, opts []galois.Option) (uint64, stats.Stats) {
			res := mis.Galois(data.(*graph.CSR), opts...)
			return res.Fingerprint(), res.Stats
		},
	})
	r.Register(&Kind{
		Name: "sssp",
		Build: func(sc inputs.Scale, seed uint64) any {
			return &ssspData{
				g: inputs.SSSPGraph(sc.SSSPNodes, sc.SSSPDegree, sc.SSSPMaxW, seed),
				o: sssp.DefaultOptions(sc.SSSPMaxW),
			}
		},
		Size: func(data any) int64 { return data.(*ssspData).g.Bytes() },
		Run: func(data any, opts []galois.Option) (uint64, stats.Stats) {
			d := data.(*ssspData)
			res := sssp.Galois(d.g, 0, d.o, opts...)
			return res.Fingerprint(), res.Stats
		},
	})
	r.Register(&Kind{
		Name: "msf",
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
	})
	r.Register(&Kind{
		Name:      "pfp",
		Exclusive: true,
		Build: func(sc inputs.Scale, seed uint64) any {
			return inputs.PFPNetwork(sc.PFPNodes, sc.PFPDegree, seed)
		},
		Size:  func(data any) int64 { return data.(*pfp.Network).Bytes() },
		Reset: func(data any) { data.(*pfp.Network).Reset() },
		Run: func(data any, opts []galois.Option) (uint64, stats.Stats) {
			val, st := pfp.Galois(data.(*pfp.Network), opts...)
			return uint64(val), st
		},
	})
	r.Register(&Kind{
		Name: "dt",
		Build: func(sc inputs.Scale, seed uint64) any {
			return &dtInput{pts: inputs.DTPoints(sc.DTPoints, seed), seed: seed}
		},
		Size: func(data any) int64 {
			return int64(cap(data.(*dtInput).pts)) * int64(unsafe.Sizeof(geom.Point{}))
		},
		Run: func(data any, opts []galois.Option) (uint64, stats.Stats) {
			d := data.(*dtInput)
			// seed+3 is the harness's BRIO-shuffle derivation for dt; keep
			// it so served fingerprints match harness fingerprints.
			res := dt.Galois(d.pts, d.seed+3, opts...)
			return res.Fingerprint(), res.Stats
		},
	})
	r.Register(&Kind{
		Name:      "dmr",
		Exclusive: true,
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
			// Reset rebuilds the mesh before the next run; nobody reads
			// the refined one after its fingerprint.
			d.root = nil
			return res.Fingerprint(), res.Stats
		},
	})
	return r
}
