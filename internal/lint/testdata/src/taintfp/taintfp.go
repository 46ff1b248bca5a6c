// Package taintfp is a detlint test fixture: order-dependent values (map
// iteration, wall-clock reads) must not reach fingerprint sinks, unless
// the flow is broken by an in-place sort or annotated //detlint:ordered.
package taintfp

import (
	"crypto/sha256"
	"hash"
	"sort"
	"strconv"
	"time"

	"galois/internal/canon"
)

type receipt struct {
	Fingerprint string
}

// cachedReceipt mirrors the serve Receipt shape: Cached is serving
// metadata, and any read of it is a taint source.
type cachedReceipt struct {
	Fingerprint string
	Cached      bool
}

func hashUnsortedKeys(m map[string]int) [32]byte {
	h := sha256.New()
	for k := range m { // want maprange
		h.Write([]byte(k)) // want taintfp
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// A one-shot digest function is a sink like a hash's Write.
func sumUnsortedKeys(m map[string]int) [32]byte {
	var b []byte
	for k := range m { // want maprange
		b = append(b, k...)
	}
	return sha256.Sum256(b) // want taintfp
}

// The canonical byte layer's writers are sinks: a map-ordered value is
// flagged where it enters a preimage or a digest.
func canonPreimageOfUnsortedKeys(m map[string]int) [canon.Size]byte {
	var buf [64]byte
	p := canon.Begin(buf[:], 1)
	for k := range m { // want maprange
		p = p.Str(k) // want taintfp
	}
	return p.Sum()
}

func canonDigestOfUnsortedValues(m map[string]uint64) uint64 {
	h := canon.NewFNV()
	for _, v := range m { // want maprange
		h = h.Word(v) // want taintfp
	}
	return uint64(h)
}

// Collect, sort, emit: the digest of a sorted collection is clean through
// the layer too.
func canonDigestOfSortedKeys(m map[string]int) uint64 {
	keys := make([]string, 0, len(m))
	for k := range m { // want maprange
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := canon.NewFNV()
	for _, k := range keys {
		h = h.Bytes([]byte(k))
	}
	return uint64(h)
}

// Collect, sort, emit: the canonical deterministic merge. The sort
// cleanses the collected slice, so the digest loop is clean.
func hashSortedKeys(m map[string]int) [32]byte {
	keys := make([]string, 0, len(m))
	for k := range m { // want maprange
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// An //detlint:ordered annotation on the source kills the taint at its
// origin, so the sink downstream is clean too (and maprange is quiet).
func orderedSourceReachesSinkCleanly(m map[string]int) [32]byte {
	h := sha256.New()
	//detlint:ordered digest folds per-key contributions commutatively upstream
	for k := range m {
		h.Write([]byte(k))
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func timestampIntoFingerprint() receipt {
	stamp := time.Now().String()       // want wallclock
	return receipt{Fingerprint: stamp} // want taintfp
}

func assignsFingerprintField(m map[string]bool, r *receipt) {
	var parts string
	for k := range m { // want maprange
		parts += k
	}
	r.Fingerprint = parts // want taintfp
}

// A digest written through a local closure: the closure's parameter takes
// the taint of each argument it is called with, in place or through the
// variable that holds it.
func digestThroughClosure(m map[string]int) [32]byte {
	h := sha256.New()
	field := func(s string) {
		h.Write([]byte(s)) // want taintfp
	}
	for k := range m { // want maprange
		field(k)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func digestThroughClosureInPlace(m map[string]int) [32]byte {
	h := sha256.New()
	for k := range m { // want maprange
		func(parts ...string) {
			for _, p := range parts {
				h.Write([]byte(p)) // want taintfp
			}
		}("key", k)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// The same closure fed sorted keys is clean.
func digestSortedThroughClosure(m map[string]int) [32]byte {
	h := sha256.New()
	field := func(s string) { h.Write([]byte(s)) }
	keys := make([]string, 0, len(m))
	for k := range m { // want maprange
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		field(k)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// digestInto feeds its parameter into a hash sink; callers passing
// order-tainted data are flagged at the call site.
func digestInto(h hash.Hash, s string) {
	h.Write([]byte(s))
}

func passesTaintedToHelper(m map[string]int) {
	var joined string
	for k := range m { // want maprange
		joined += k
	}
	h := sha256.New()
	digestInto(h, joined) // want taintfp
}

// joinKeys returns internally order-tainted data; the taint survives the
// call boundary into the caller's sink.
func joinKeys(m map[string]int) string {
	var s string
	for k := range m { // want maprange
		s += k
	}
	return s
}

func sinksHelperResult(m map[string]int) receipt {
	return receipt{Fingerprint: joinKeys(m)} // want taintfp
}

func suppressedSink(m map[string]int) receipt {
	var s string
	//detlint:ignore maprange,taintfp harness-only digest, not a det receipt
	for k := range m {
		s += k
	}
	//detlint:ignore taintfp harness-only digest, not a det receipt
	return receipt{Fingerprint: s}
}

// The Cached flag describes which copy of a result answered a request,
// never what the result is: deriving fingerprint material from it would
// make a receipt's proof depend on cache state.
func cachedFlagIntoFingerprint(r cachedReceipt) receipt {
	mark := strconv.FormatBool(r.Cached)
	return receipt{Fingerprint: mark} // want taintfp
}

func cachedFlagIntoDigest(r cachedReceipt) [32]byte {
	h := sha256.New()
	h.Write([]byte(strconv.FormatBool(r.Cached))) // want taintfp
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Branching on the flag is fine — counting cache hits is observational
// bookkeeping, and control flow does not propagate taint.
func countsCacheHitsCleanly(rs []cachedReceipt) receipt {
	hits := 0
	for _, r := range rs {
		if r.Cached {
			hits++
		}
	}
	return receipt{Fingerprint: strconv.Itoa(hits)}
}

// recJoin exercises the taint-summary cycle guard.
func recJoin(m map[string]int, depth int) string {
	if depth == 0 {
		return ""
	}
	var s string
	for k := range m { // want maprange
		s += k
	}
	return s + recJoin(m, depth-1)
}
