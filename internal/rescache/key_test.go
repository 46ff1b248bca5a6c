package rescache

import (
	"bytes"
	"crypto/sha256"
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

func TestKeyOfLink(t *testing.T) {
	prev := make([]byte, 32)
	prev2 := make([]byte, 32)
	prev2[31] = 1
	canon := []byte{1, 'r', 'e', 'f'}

	a, err := KeyOfLink(prev, canon)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KeyOfLink(prev, canon)
	if err != nil || a != b {
		t.Fatalf("identical preimages hashed apart: %s vs %s (%v)", a, b, err)
	}
	// Both the chain prefix and the batch payload must move the key.
	if k, _ := KeyOfLink(prev2, canon); k == a {
		t.Fatal("prev does not move the link key")
	}
	if k, _ := KeyOfLink(prev, []byte{1, 'r', 'e', 'g'}); k == a {
		t.Fatal("canon does not move the link key")
	}
	// Link keys live in the same cache as spec keys (KeyOf) — the version
	// byte must keep the two preimage spaces apart. A spec key's preimage
	// can't be forged from (prev, canon) anyway, but cheap insurance.
	if spec := mustKey(t, "bfs", "g-d", "small", 42, 2); spec == a {
		t.Fatal("link key collided with a spec key")
	}

	for _, bad := range []struct {
		prev, canon []byte
	}{
		{nil, canon},
		{prev[:31], canon},
		{append(prev, 0), canon},
		{prev, nil},
		{prev, []byte{}},
	} {
		if _, err := KeyOfLink(bad.prev, bad.canon); err == nil {
			t.Errorf("KeyOfLink(%d-byte prev, %d-byte canon): expected error",
				len(bad.prev), len(bad.canon))
		}
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

// TestKeyDomainsCannotAlias: a job key, a link key and an input key are
// SHA-256 over (version byte ‖ payload) with three different version bytes,
// so even byte-identical payloads hash apart. Each function's preimage is
// rebuilt here by hand, which pins both the version bytes and the encodings.
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

	prev := bytes.Repeat([]byte{0xab}, sha256.Size)
	canon := []byte("canonical batch")
	link := append(append(append([]byte{}, prev...), byte(len(canon))), canon...)
	if got, err := KeyOfLink(prev, canon); err != nil || got != sum(2, link) {
		t.Errorf("KeyOfLink is not sha256(2 ‖ payload): %s, %v", got, err)
	}

	input := append([]byte{3, 'b', 'f', 's', 5, 's', 'm', 'a', 'l', 'l'}, seed...)
	if got := KeyOfInput("bfs", "small", 42); got != sum(3, input) {
		t.Errorf("KeyOfInput is not sha256(3 ‖ payload): %s", got)
	}

	for _, payload := range [][]byte{job, link, input} {
		if a, b, c := sum(1, payload), sum(2, payload), sum(3, payload); a == b || a == c || b == c {
			t.Errorf("one payload, three domains, colliding keys: %s %s %s", a, b, c)
		}
	}
}
