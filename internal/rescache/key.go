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
//   - Key / KeyOf: a canonical, field-ordered byte encoding of the
//     semantic spec fields hashed to a fixed-size address. Non-semantic
//     fields (timeout, trace) are excluded; non-deterministic (g-n) specs
//     are rejected — their output is not a function of the spec.
//     KeyOfInput is the other key domain (built inputs), under its own
//     version byte.
//   - Cache: a byte-budget LRU over opaque result values, safe for
//     concurrent use, with counters.
//   - Flight: singleflight collapse of concurrent identical submissions
//     onto one execution.
//
// Everything here is deterministic given its inputs: no wall clock, no
// global RNG, no map iteration reaches any output.
package rescache

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
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
type Key [sha256.Size]byte

// String renders a short prefix of the key for logs and error messages.
func (k Key) String() string { return fmt.Sprintf("%x", k[:8]) }

// Low64 returns the key's leading 8 bytes as an int64, for trace-event
// args (events carry int64 payloads; a prefix is enough to correlate).
func (k Key) Low64() int64 { return int64(binary.BigEndian.Uint64(k[:8])) }

// KeyOf hashes the semantic fields of a normalized spec to its cache key.
//
// The encoding is canonical: a fixed version byte, then the fields in a
// fixed order, strings length-prefixed (uvarint) so adjacent fields can
// never re-segment into each other ("ab","c" and "a","bc" hash apart).
// Because the caller passes *normalized* values, two JSON specs that are
// semantically identical — different field order, defaults spelled out or
// omitted — reach this function with identical arguments and collide onto
// the same key. Timeout and trace flags are intentionally absent: they
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
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	field := func(s string) {
		n := binary.PutUvarint(buf[:], uint64(len(s)))
		h.Write(buf[:n])
		h.Write([]byte(s))
	}
	h.Write([]byte{keyVersion})
	field(kind)
	field(variant)
	field(scale)
	binary.BigEndian.PutUint64(buf[:8], seed)
	h.Write(buf[:8])
	n := binary.PutUvarint(buf[:], uint64(threads))
	h.Write(buf[:n])
	var k Key
	h.Sum(k[:0])
	return k, nil
}

// KeyOfInput addresses one built input cell: the input family (kinds that
// run on the same input share one), the scale name and the seed — what the
// canonical derivations in internal/inputs are a pure function of. Same
// encoding discipline as KeyOf: version byte, strings length-prefixed,
// fixed-width seed. The arguments come from a normalized spec and the
// registry, so there is nothing to reject.
func KeyOfInput(family, scale string, seed uint64) Key {
	var backing [96]byte // keeps the preimage of any registered family on the stack
	b := append(backing[:0], inputKeyVersion)
	b = binary.AppendUvarint(b, uint64(len(family)))
	b = append(b, family...)
	b = binary.AppendUvarint(b, uint64(len(scale)))
	b = append(b, scale...)
	b = binary.BigEndian.AppendUint64(b, seed)
	return sha256.Sum256(b)
}
