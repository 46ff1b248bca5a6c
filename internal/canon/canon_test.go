package canon_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"galois/internal/canon"
)

// TestFNVMatchesStdlib: every byte-wise write folds the bytes hash/fnv's
// New64a would, least significant first, and Hex is %016x.
func TestFNVMatchesStdlib(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xff, 0xdeadbeef, 1<<63 | 0x0123456789abcdef} {
		ref := fnv.New64a()
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		ref.Write([]byte("key"))
		ref.Write(b[:1])
		ref.Write(b[:4])
		ref.Write(b[:])
		h := canon.NewFNV().Bytes([]byte("key")).Byte(byte(v)).U32(uint32(v)).U64(v)
		if uint64(h) != ref.Sum64() {
			t.Errorf("%#x: FNV %016x, hash/fnv %016x", v, uint64(h), ref.Sum64())
		}
		if got, want := canon.Hex(v), fmt.Sprintf("%016x", v); got != want {
			t.Errorf("Hex(%#x) = %q, want %q", v, got, want)
		}
	}
}
