// Package canon is the only code that knows the bytes of a receipt, so
// they stay a pure function of a run's input wherever it is re-derived.
// A preimage (a cache key's, a chain link's) is a version byte, then
// strings prefixed by their uvarint length so adjacent fields never
// re-segment, and seeds and fingerprints as big-endian words; callers
// append counts as uvarints. It is hashed once with SHA-256. A result
// fingerprint is FNV-1a 64 over little-endian bytes or whole words,
// rendered as 16 lowercase hex digits.
package canon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Size is the byte length of a preimage's hash.
const Size = sha256.Size

// Preimage is a canonical byte string under construction. Begun on a
// caller's stack buffer, it stays there unless a field outgrows it.
type Preimage []byte

// Begin starts a preimage in buf's storage with its version byte.
func Begin(buf []byte, version byte) Preimage { return append(buf[:0], version) }

// Str appends s, length-prefixed.
func (p Preimage) Str(s string) Preimage {
	return append(binary.AppendUvarint(p, uint64(len(s))), s...)
}

// Bytes appends b, length-prefixed.
func (p Preimage) Bytes(b []byte) Preimage {
	return append(binary.AppendUvarint(p, uint64(len(b))), b...)
}

// Word appends v as a fixed-width big-endian word: seeds and fingerprints.
func (p Preimage) Word(v uint64) Preimage { return binary.BigEndian.AppendUint64(p, v) }

// Sum hashes the preimage.
func (p Preimage) Sum() [Size]byte { return sha256.Sum256(p) }

// FNV is a 64-bit FNV-1a digest. Each write returns the updated digest,
// so a fold stays in a register; start from NewFNV.
type FNV uint64

const fnvPrime = 1099511628211

// NewFNV returns the digest of no bytes (FNV's offset basis).
func NewFNV() FNV { return 14695981039346656037 }

// Byte folds one byte.
func (h FNV) Byte(c byte) FNV { return (h ^ FNV(c)) * fnvPrime }

// Bytes folds b byte by byte.
func (h FNV) Bytes(b []byte) FNV {
	for _, c := range b {
		h = (h ^ FNV(c)) * fnvPrime
	}
	return h
}

// U32 folds v's four bytes, least significant first.
func (h FNV) U32(v uint32) FNV {
	return h.Byte(byte(v)).Byte(byte(v >> 8)).Byte(byte(v >> 16)).Byte(byte(v >> 24))
}

// U64 folds v's eight bytes, least significant first.
func (h FNV) U64(v uint64) FNV {
	for i := 0; i < 64; i += 8 {
		h = h.Byte(byte(v >> i))
	}
	return h
}

// Word folds v as one unit: one xor and one multiply.
func (h FNV) Word(v uint64) FNV { return (h ^ FNV(v)) * fnvPrime }

// Hex renders a fingerprint as receipts carry it: 16 lowercase hex digits.
func Hex(fp uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], fp)
	return hex.EncodeToString(b[:])
}
