package serve

// Result-cache glue: everything the server layers on top of
// internal/rescache. The soundness argument lives with the cache package;
// what belongs here is policy — which specs are cacheable and what a
// cached value carries.

import (
	"encoding/json"

	"galois/internal/rescache"
)

// cachedResult is the cache-resident value for one spec key: the receipt
// plus the run measurements of the execution that produced it. The stored
// Receipt always has Cached=false — the flag describes how a particular
// response was served, not the result itself, and must never be part of
// the stored (or fingerprinted) identity.
type cachedResult struct {
	Receipt Receipt `json:"receipt"`
	WallNS  int64   `json:"wall_ns"`
	Commits uint64  `json:"commits"`
	Aborts  uint64  `json:"aborts"`
	Rounds  uint64  `json:"rounds"`
}

// cacheEntryOverhead approximates the per-entry bookkeeping bytes (map
// slot, list links, headers) charged on top of the encoded payload.
const cacheEntryOverhead = 256

// size is the byte charge of this entry against the cache budget: its
// encoded size plus fixed overhead.
func (cr *cachedResult) size() int64 {
	data, err := json.Marshal(cr)
	if err != nil {
		return cacheEntryOverhead
	}
	return int64(len(data)) + cacheEntryOverhead
}

// result materializes a fresh JobResult for one cache hit. Receipt.Cached
// is set on the copy only; WallNS et al. report the producing execution
// (that is what the fingerprint attests to), QueueNS is zero because a
// lookup never queues, and EngineHit is false because no engine ran.
func (cr *cachedResult) result() *JobResult {
	res := &JobResult{
		Receipt: cr.Receipt,
		WallNS:  cr.WallNS,
		Commits: cr.Commits,
		Aborts:  cr.Aborts,
		Rounds:  cr.Rounds,
	}
	res.Receipt.Cached = true
	return res
}

// cacheKey computes the content address of a normalized spec and reports
// whether its result may be cached at all: deterministic variants only
// (g-n output is not a function of the spec), shared read-only inputs only
// (Exclusive kinds — pfp's mutable network, dmr's consumed mesh — reset
// state between runs, and a one-shot cache entry would skip exactly that
// reset; mutation-as-a-workload belongs to sessions, whose batches always
// run), untraced requests only (a trace is a capture of one execution, not
// part of the result), and only when a cache is configured.
func (s *Server) cacheKey(spec Spec, kind *Kind) (rescache.Key, bool) {
	if s.cache == nil || !spec.Deterministic() || kind.Exclusive || spec.Trace {
		return rescache.Key{}, false
	}
	key, err := rescache.KeyOf(spec.Kind, spec.Variant, spec.Scale, spec.Seed, spec.Threads)
	if err != nil {
		return rescache.Key{}, false
	}
	return key, true
}
