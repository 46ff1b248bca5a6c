// Package rescache is the content-addressed result cache of the serving
// stack. It exists because of the paper's central property: a deterministic
// run's output is a pure function of its canonical spec, independent of
// machine and thread count. That makes caching *sound* — a result stored
// under the hash of a normalized spec is, by construction, byte-identical
// to what a fresh execution of that spec would produce, and the fingerprint
// receipt stored with it is the proof (POST /verify can re-derive it at any
// time).
//
// The package provides three pieces, composed by internal/serve:
//
//   - Key / KeyOf: the semantic spec fields' canonical preimage
//     (internal/canon) hashed to a fixed-size address. Timeout and trace
//     are excluded; g-n specs are rejected — their output is not a
//     function of the spec. KeyOfInput addresses built inputs.
//   - Cache: a byte-budget LRU over opaque result values, safe for
//     concurrent use, with counters.
//   - Flight: singleflight collapse of concurrent identical submissions
//     onto one execution.
//
// Everything here is deterministic given its inputs: no wall clock, no
// global RNG, no map iteration reaches any output.
package rescache

import (
	"encoding/binary"
	"errors"
	"fmt"

	"galois/internal/canon"
)

// keyVersion is the first byte of every key preimage. Bump it whenever the
// encoding below changes shape, so keys from different encodings can never
// alias.
const keyVersion = 1

// Version byte 2 led the preimages of session-link keys, a domain that is
// gone; it stays reserved so no new domain can alias keys it made.

// inputKeyVersion leads input key preimages (KeyOfInput): a domain of its
// own, so an input cell can never alias a job key even if their payloads
// coincide byte-for-byte.
const inputKeyVersion = 3

// ErrNondeterministic is returned by KeyOf for g-n specs: a speculative
// run's output depends on scheduling, so it has no content address.
var ErrNondeterministic = errors.New("rescache: non-deterministic (g-n) specs have no cache key")

// Key is the content address of one canonical deterministic job spec: the
// SHA-256 of the spec's normalized field-ordered encoding.
type Key [canon.Size]byte

// String renders a short prefix of the key for logs and error messages.
func (k Key) String() string { return fmt.Sprintf("%x", k[:8]) }

// Low64 returns the key's leading 8 bytes as an int64, for trace-event
// args (events carry int64 payloads; a prefix is enough to correlate).
func (k Key) Low64() int64 { return int64(binary.BigEndian.Uint64(k[:8])) }

// KeyOf hashes the semantic fields of a normalized spec to its cache key.
//
// The preimage is canonical (internal/canon): the version byte, kind,
// variant, scale, seed, then threads as a uvarint. Because the caller
// passes *normalized* values, two JSON specs that are semantically
// identical — different field order, defaults spelled out or omitted —
// reach this function with identical arguments and collide onto the same
// key. Timeout and trace flags are intentionally absent: they
// change how a run is supervised, not what it computes.
//
// KeyOf rejects g-n variants (ErrNondeterministic) and un-normalized
// arguments (empty strings, non-positive threads): a key must only ever be
// derived from a spec the server has validated.
func KeyOf(kind, variant, scale string, seed uint64, threads int) (Key, error) {
	if variant == "g-n" {
		return Key{}, ErrNondeterministic
	}
	if kind == "" || variant == "" || scale == "" || threads <= 0 {
		return Key{}, fmt.Errorf("rescache: spec not normalized (kind=%q variant=%q scale=%q threads=%d)",
			kind, variant, scale, threads)
	}
	var buf [96]byte // keeps the preimage of any registered spec on the stack
	p := canon.Begin(buf[:], keyVersion).Str(kind).Str(variant).Str(scale).Word(seed)
	return canon.Preimage(binary.AppendUvarint(p, uint64(threads))).Sum(), nil
}

// KeyOfInput addresses one built input cell: the input family (kinds that
// run on the same input share one), the scale name and the seed — what the
// canonical derivations in internal/inputs are a pure function of, after
// its own version byte. The arguments come from a normalized spec and the
// registry, so there is nothing to reject.
func KeyOfInput(family, scale string, seed uint64) Key {
	var buf [96]byte // keeps the preimage of any registered family on the stack
	return canon.Begin(buf[:], inputKeyVersion).Str(family).Str(scale).Word(seed).Sum()
}
