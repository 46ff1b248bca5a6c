package session

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"galois/internal/canon"
)

// Canonical encodings (internal/canon). A link's hash covers bytes, not
// JSON, and a version byte leads so the scheme can evolve without old
// chains verifying against new rules.

const canonVersion = 1

// canonInit encodes the genesis payload. Threads is deliberately absent:
// the chain is thread-count independent.
func canonInit(is InitSpec) []byte {
	return canon.Begin(make([]byte, 0, 64), canonVersion).Str("init").
		Str(is.Kind).Str(is.Variant).Str(is.Scale).Word(is.Seed)
}

// canonTombstone encodes an eviction marker.
func canonTombstone(reason string) []byte {
	return canon.Begin(make([]byte, 0, 32), canonVersion).Str("tombstone").Str(reason)
}

// canonRefine encodes dmr's refine batch.
func canonRefine(b *BatchSpec) ([]byte, error) {
	if b.AngleCentideg <= 0 || b.AngleCentideg > 3000 {
		return nil, fmt.Errorf("refine: angle_centideg %d out of range (0, 3000]", b.AngleCentideg)
	}
	p := canon.Begin(make([]byte, 0, 32), canonVersion).Str("refine")
	return binary.AppendUvarint(p, uint64(b.AngleCentideg)), nil
}

// canonReweight encodes sssp's reweight batch.
func canonReweight(b *BatchSpec) ([]byte, error) {
	if b.Edges <= 0 || b.Edges > 1<<16 {
		return nil, fmt.Errorf("reweight: edges %d out of range (0, 65536]", b.Edges)
	}
	p := canon.Begin(make([]byte, 0, 32), canonVersion).Str("reweight")
	return canon.Preimage(binary.AppendUvarint(p, uint64(b.Edges))).Word(b.Seed), nil
}

// chainHash is the link function: SHA-256 over the previous link's raw
// hash, the length-prefixed payload and the two fingerprints it attests.
func chainHash(prev [canon.Size]byte, payload []byte, stateFP, resultFP uint64) [canon.Size]byte {
	var buf [128]byte
	p := append(canon.Begin(buf[:], canonVersion), prev[:]...)
	return p.Bytes(payload).Word(stateFP).Word(resultFP).Sum()
}

// genesisPrev is the all-zero predecessor of the genesis link.
var genesisPrev [canon.Size]byte

func chainHex(c [canon.Size]byte) string { return hex.EncodeToString(c[:]) }
