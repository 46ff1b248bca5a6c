package router

import "galois/internal/rng"

// place is the router's one placement rule for a request with a spec key:
// rendezvous (highest random weight) hashing of the key against each
// healthy backend's identity. A repeat spec lands on the backend whose
// result cache already holds it, for as long as that backend stays
// healthy, and a membership change moves only the keys of the backend
// that left or joined. candidates is non-empty and in configured order,
// so a score tie goes to the first configured backend.
//
// Requests without a key — g-n specs, session creations, verifies, kinds
// listings — go round-robin instead (Router.pick). Placement is
// never part of a result: a det receipt is a pure function of its spec,
// so the rule only decides where a result is cached, never what it is.
func place(candidates []*Backend, key uint64) *Backend {
	best := candidates[0]
	bestScore := rng.Mix64(key ^ best.id)
	for _, b := range candidates[1:] {
		if s := rng.Mix64(key ^ b.id); s > bestScore {
			best, bestScore = b, s
		}
	}
	return best
}
