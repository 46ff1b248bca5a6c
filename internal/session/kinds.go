package session

import (
	"fmt"
	"math"
	"sync"

	"galois"
	"galois/internal/apps/dmr"
	"galois/internal/apps/sssp"
	"galois/internal/canon"
	"galois/internal/graph"
	"galois/internal/inputs"
	"galois/internal/mesh"
	"galois/internal/rng"
	"galois/internal/stats"
)

// Kind defines one session type: how to build its initial state, how to
// canonically encode a batch, and how to apply a batch. Apply mutates
// state in place — the session lock serializes calls — and returns the
// post-state fingerprint plus the run's result fingerprint, both pure
// functions of (init spec, batch sequence) under deterministic scheduling.
type Kind struct {
	Name string
	// Init derives the initial state from the canonical input derivations
	// in internal/inputs and returns its state fingerprint.
	Init func(sc inputs.Scale, seed uint64) (state any, stateFP uint64)
	// Canon validates b and returns the bytes the chain hash covers.
	// Threads/TimeoutMS/Prev never appear in the encoding.
	Canon func(b *BatchSpec) ([]byte, error)
	// Apply executes one batch against state with the given scheduler
	// options (engine checkout belongs to the serving layer).
	Apply func(state any, b BatchSpec, opts []galois.Option) (stateFP, resultFP uint64, st stats.Stats, err error)
}

// KindSet is an ordered registry of session kinds.
type KindSet struct {
	mu    sync.RWMutex
	kinds map[string]*Kind
	names []string
}

// NewKindSet returns an empty kind set.
func NewKindSet() *KindSet { return &KindSet{kinds: make(map[string]*Kind)} }

// Register adds k; duplicate names panic (a config bug).
func (ks *KindSet) Register(k *Kind) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if _, dup := ks.kinds[k.Name]; dup {
		panic("session: duplicate kind " + k.Name)
	}
	ks.kinds[k.Name] = k
	ks.names = append(ks.names, k.Name)
}

// Lookup returns the kind named name, or nil.
func (ks *KindSet) Lookup(name string) *Kind {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	return ks.kinds[name]
}

// Names returns the registered names in registration order.
func (ks *KindSet) Names() []string {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	return append([]string(nil), ks.names...)
}

// dmrState pins the live mesh between batches. Refinement replaces
// elements, so the anchor moves with each batch.
type dmrState struct {
	root *mesh.Element
}

// ssspState pins the weighted graph; reweight batches perturb W in place
// and the result fingerprint is the SSSP distance fingerprint after the
// perturbation.
type ssspState struct {
	g    *graph.Weighted
	o    sssp.Options
	maxW uint32
}

// weightFP fingerprints the graph's weight array in edge-index order
// (deterministic: CSR layout is a pure function of the input derivation).
func weightFP(w []uint32) uint64 {
	h := canon.NewFNV()
	for _, x := range w {
		h = h.Word(uint64(x))
	}
	return uint64(h)
}

// DefaultKinds returns the standard session kinds: "dmr" (mesh refinement
// at a per-batch quality bound) and "sssp" (edge-weight perturbation plus
// re-solve on the pinned graph).
func DefaultKinds() *KindSet {
	ks := NewKindSet()
	ks.Register(&Kind{
		Name: "dmr",
		Init: func(sc inputs.Scale, seed uint64) (any, uint64) {
			root := inputs.DMRMesh(sc.DMRPoints, seed)
			return &dmrState{root: root}, mesh.Fingerprint(root, false)
		},
		Canon: func(b *BatchSpec) ([]byte, error) {
			if b.Op != "refine" {
				return nil, fmt.Errorf("dmr session: unknown op %q (want refine)", b.Op)
			}
			return canonRefine(b)
		},
		Apply: func(state any, b BatchSpec, opts []galois.Option) (uint64, uint64, stats.Stats, error) {
			st := state.(*dmrState)
			// The bound arrives in centidegrees so the canonical encoding
			// stays integral; the cosine is derived deterministically here.
			q := dmr.Quality{
				CosBound: math.Cos(float64(b.AngleCentideg) / 100 * math.Pi / 180),
				MinEdge2: 1e-10,
			}
			res := dmr.Galois(st.root, q, opts...)
			st.root = res.Root
			fp := res.Fingerprint()
			return fp, fp, res.Stats, nil
		},
	})
	ks.Register(&Kind{
		Name: "sssp",
		Init: func(sc inputs.Scale, seed uint64) (any, uint64) {
			g := inputs.SSSPGraph(sc.SSSPNodes, sc.SSSPDegree, sc.SSSPMaxW, seed)
			return &ssspState{g: g, o: sssp.DefaultOptions(sc.SSSPMaxW), maxW: sc.SSSPMaxW}, weightFP(g.W)
		},
		Canon: func(b *BatchSpec) ([]byte, error) {
			if b.Op != "reweight" {
				return nil, fmt.Errorf("sssp session: unknown op %q (want reweight)", b.Op)
			}
			return canonReweight(b)
		},
		Apply: func(state any, b BatchSpec, opts []galois.Option) (uint64, uint64, stats.Stats, error) {
			st := state.(*ssspState)
			reweight(st.g, st.maxW, b.Edges, b.Seed)
			res := sssp.Galois(st.g, 0, st.o, opts...)
			return weightFP(st.g.W), res.Fingerprint(), res.Stats, nil
		},
	})
	return ks
}

// reweight applies count seeded edge-weight perturbations to g. Each draw
// picks a node, one of its out-edges and a fresh weight; the reverse edge
// (the graph is symmetrized) gets the same weight so the graph stays an
// undirected weighting. The stream is a pure function of seed, so a
// replay reproduces the exact perturbation sequence.
func reweight(g *graph.Weighted, maxW uint32, count int, seed uint64) {
	r := rng.New(rng.Mix64(seed ^ 0x5e551044ee1d5eed))
	n := g.N()
	for i := 0; i < count; i++ {
		u := r.Intn(n)
		nbrs := g.Neighbors(u)
		if len(nbrs) == 0 {
			// Draw consumed; isolated nodes simply skip. Still deterministic.
			continue
		}
		slot := r.Intn(len(nbrs))
		w := uint32(r.Uint64n(uint64(maxW))) + 1
		lo, _ := g.EdgeRange(u)
		g.W[lo+int64(slot)] = w
		v := int(nbrs[slot])
		vlo, _ := g.EdgeRange(v)
		for j, x := range g.Neighbors(v) {
			if int(x) == u {
				g.W[vlo+int64(j)] = w
				break
			}
		}
	}
}
