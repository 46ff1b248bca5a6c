package serve

import (
	"sync"

	"galois/internal/catalog"
)

// Kind is one registered job kind: how to build its input for a (scale,
// seed) cell and how to run it. It is a catalog entry — DefaultRegistry
// registers the catalog — and stays constructible, so tests can register
// kinds of their own. The server reads Name, Family, Exclusive, Build, Size,
// Reset and Run; the scheduler variant arrives pre-translated in Run's
// opts, so a Kind is variant-agnostic.
type Kind = catalog.App

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

// DefaultRegistry returns every app of the catalog (internal/catalog), in
// its order: the shared-input kinds (bfs, dt, mis, msf, sssp) plus the
// in-place mutators (dmr, pfp), which go through the Exclusive-input
// machinery — the server serializes their runs and resets the input before
// each one. A job's receipt fingerprints the result, not the bulk output,
// so even the mesh apps fit request/response serving; clients that want
// the mesh itself use a session (internal/session) instead.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	for _, app := range catalog.Apps() {
		r.Register(app)
	}
	return r
}
