package rescache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

func mustKey(t *testing.T, kind, variant, scale string, seed uint64, threads int) Key {
	t.Helper()
	k, err := KeyOf(kind, variant, scale, seed, threads)
	if err != nil {
		t.Fatalf("KeyOf(%s,%s,%s,%d,%d): %v", kind, variant, scale, seed, threads, err)
	}
	return k
}

func TestKeyOfStable(t *testing.T) {
	a := mustKey(t, "bfs", "g-d", "small", 42, 2)
	b := mustKey(t, "bfs", "g-d", "small", 42, 2)
	if a != b {
		t.Fatalf("identical specs hashed apart: %s vs %s", a, b)
	}
}

func TestKeyOfFieldSeparation(t *testing.T) {
	// Every semantic field must move the key, and adjacent string fields
	// must not re-segment into each other.
	base := mustKey(t, "bfs", "g-d", "small", 42, 2)
	distinct := []Key{
		mustKey(t, "sssp", "g-d", "small", 42, 2),
		mustKey(t, "bfs", "g-dnc", "small", 42, 2),
		mustKey(t, "bfs", "g-d", "default", 42, 2),
		mustKey(t, "bfs", "g-d", "small", 43, 2),
		mustKey(t, "bfs", "g-d", "small", 42, 4),
	}
	seen := map[Key]bool{base: true}
	for _, k := range distinct {
		if seen[k] {
			t.Fatalf("distinct specs collided on %s", k)
		}
		seen[k] = true
	}
	// Re-segmentation: ("ab","c") vs ("a","bc") as kind/variant would
	// collide under naive concatenation. Not normal specs, but the
	// encoding must hold for any strings.
	x := mustKey(t, "ab", "c", "small", 0, 1)
	y := mustKey(t, "a", "bc", "small", 0, 1)
	if x == y {
		t.Fatal("length prefixing failed: adjacent fields re-segmented")
	}
}

func TestKeyOfRejectsNondeterministic(t *testing.T) {
	_, err := KeyOf("bfs", "g-n", "small", 42, 2)
	if !errors.Is(err, ErrNondeterministic) {
		t.Fatalf("g-n spec: got err %v, want ErrNondeterministic", err)
	}
}

func TestKeyOfRejectsUnnormalized(t *testing.T) {
	cases := []struct {
		kind, variant, scale string
		threads              int
	}{
		{"", "g-d", "small", 1},
		{"bfs", "", "small", 1},
		{"bfs", "g-d", "", 1},
		{"bfs", "g-d", "small", 0},
		{"bfs", "g-d", "small", -1},
	}
	for _, c := range cases {
		if _, err := KeyOf(c.kind, c.variant, c.scale, 0, c.threads); err == nil {
			t.Errorf("KeyOf(%q,%q,%q,th=%d): expected error", c.kind, c.variant, c.scale, c.threads)
		}
	}
}

func TestKeyOfInputFieldSeparation(t *testing.T) {
	base := KeyOfInput("kout-graph", "small", 42)
	if base != KeyOfInput("kout-graph", "small", 42) {
		t.Fatal("identical input cells hashed apart")
	}
	seen := map[Key]bool{base: true}
	for _, k := range []Key{
		KeyOfInput("sssp", "small", 42),
		KeyOfInput("kout-graph", "default", 42),
		KeyOfInput("kout-graph", "small", 43),
		KeyOfInput("kout-graph", "small", 42<<32),
		// Re-segmentation of the two strings.
		KeyOfInput("ab", "c", 42),
		KeyOfInput("a", "bc", 42),
		// A family longer than the stack preimage buffer.
		KeyOfInput(strings.Repeat("f", 200), "small", 42),
		KeyOfInput(strings.Repeat("f", 201), "small", 42),
	} {
		if seen[k] {
			t.Fatalf("distinct input cells collided on %s", k)
		}
		seen[k] = true
	}
}

// TestKeyDomainsCannotAlias: a job key and an input key are SHA-256 over
// (version byte ‖ payload) with different version bytes (2, once the
// session-link domain's, stays reserved), so even byte-identical payloads
// hash apart. Each function's preimage is rebuilt here by hand, which pins
// both the version bytes and the encodings.
func TestKeyDomainsCannotAlias(t *testing.T) {
	sum := func(version byte, payload []byte) Key {
		return sha256.Sum256(append([]byte{version}, payload...))
	}
	seed := []byte{0, 0, 0, 0, 0, 0, 0, 42}

	job := append([]byte{3, 'b', 'f', 's', 3, 'g', '-', 'd', 5, 's', 'm', 'a', 'l', 'l'}, seed...)
	job = append(job, 2)
	if got := mustKey(t, "bfs", "g-d", "small", 42, 2); got != sum(1, job) {
		t.Errorf("KeyOf is not sha256(1 ‖ payload): %s", got)
	}

	input := append([]byte{3, 'b', 'f', 's', 5, 's', 'm', 'a', 'l', 'l'}, seed...)
	if got := KeyOfInput("bfs", "small", 42); got != sum(3, input) {
		t.Errorf("KeyOfInput is not sha256(3 ‖ payload): %s", got)
	}

	for _, payload := range [][]byte{job, input} {
		if a, b := sum(1, payload), sum(3, payload); a == b {
			t.Errorf("one payload, two domains, colliding keys: %s %s", a, b)
		}
	}
}

// jobPreimage and inputPreimage spell out the documented encodings of
// KeyOf and KeyOfInput: version byte, strings uvarint-length-prefixed,
// seed big-endian fixed width, threads uvarint.
func jobPreimage(kind, variant, scale string, seed uint64, threads int) []byte {
	b := []byte{keyVersion}
	for _, f := range []string{kind, variant, scale} {
		b = binary.AppendUvarint(b, uint64(len(f)))
		b = append(b, f...)
	}
	b = binary.BigEndian.AppendUint64(b, seed)
	return binary.AppendUvarint(b, uint64(threads))
}

func inputPreimage(family, scale string, seed uint64) []byte {
	b := []byte{inputKeyVersion}
	for _, f := range []string{family, scale} {
		b = binary.AppendUvarint(b, uint64(len(f)))
		b = append(b, f...)
	}
	return binary.BigEndian.AppendUint64(b, seed)
}

// FuzzKeyOf: KeyOf and KeyOfInput hash exactly their documented
// preimages, two distinct KeyOf tuples never share a preimage or a key,
// two distinct KeyOfInput tuples never do either, and no KeyOf tuple
// shares one with a KeyOfInput tuple. The input tuples reuse the job
// tuples' kind, scale and seed fields.
func FuzzKeyOf(f *testing.F) {
	f.Add("bfs", "g-d", "small", uint64(42), 2, "bfs", "g-d", "small", uint64(42), 4)
	f.Add("ab", "c", "small", uint64(0), 1, "a", "bc", "small", uint64(0), 1)
	f.Add("bfs", "g-d", "smal", uint64(0x6c), 1, "bfs", "g-d", "small", uint64(0), 1)
	f.Add("sssp", "g-dnc", "default", uint64(42), 1, "sssp", "g-dnc", "default", uint64(42<<32), 1)
	f.Add(strings.Repeat("f", 200), "g-d", "small", uint64(7), 128, strings.Repeat("f", 201), "g-d", "small", uint64(7), 128)
	f.Add("bfs", "g-n", "small", uint64(1), 1, "kout-graph", "g-d", "full", uint64(1), 1)
	f.Fuzz(func(t *testing.T, kind1, variant1, scale1 string, seed1 uint64, threads1 int,
		kind2, variant2, scale2 string, seed2 uint64, threads2 int) {
		type job struct {
			kind, variant, scale string
			seed                 uint64
			threads              int
		}
		var pre [][]byte
		var keys []Key
		for _, j := range []job{{kind1, variant1, scale1, seed1, threads1}, {kind2, variant2, scale2, seed2, threads2}} {
			k, err := KeyOf(j.kind, j.variant, j.scale, j.seed, j.threads)
			if err != nil {
				continue // g-n or not normalized: no key at all
			}
			p := jobPreimage(j.kind, j.variant, j.scale, j.seed, j.threads)
			if k != sha256.Sum256(p) {
				t.Fatalf("KeyOf%v is not sha256 of its documented preimage", j)
			}
			pre, keys = append(pre, p), append(keys, k)
		}
		sameJob := kind1 == kind2 && variant1 == variant2 && scale1 == scale2 && seed1 == seed2 && threads1 == threads2
		if len(pre) == 2 && !sameJob && (bytes.Equal(pre[0], pre[1]) || keys[0] == keys[1]) {
			t.Fatalf("distinct job tuples share a preimage or key: %x", pre[0])
		}
		jobs := len(pre)
		type input struct {
			family, scale string
			seed          uint64
		}
		for _, in := range []input{{kind1, scale1, seed1}, {kind2, scale2, seed2}} {
			p := inputPreimage(in.family, in.scale, in.seed)
			k := KeyOfInput(in.family, in.scale, in.seed)
			if k != sha256.Sum256(p) {
				t.Fatalf("KeyOfInput%v is not sha256 of its documented preimage", in)
			}
			pre, keys = append(pre, p), append(keys, k)
		}
		sameInput := kind1 == kind2 && scale1 == scale2 && seed1 == seed2
		for i := range pre {
			for j := i + 1; j < len(pre); j++ {
				if i < jobs && j < jobs || i >= jobs && sameInput {
					continue // job pairs checked above; equal input tuples
				}
				if bytes.Equal(pre[i], pre[j]) || keys[i] == keys[j] {
					t.Fatalf("distinct tuples share a preimage or key: %x", pre[i])
				}
			}
		}
	})
}
