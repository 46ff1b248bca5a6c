package session

import (
	"crypto/sha256"
	"strings"
	"testing"
)

// TestCanonEncodingsInjective: no two distinct specs may share an
// encoding — length prefixes must prevent field-boundary ambiguity.
func TestCanonEncodingsInjective(t *testing.T) {
	mustRefine := func(angle int) []byte {
		b, err := canonRefine(&BatchSpec{Op: "refine", AngleCentideg: angle})
		if err != nil {
			t.Fatalf("refine %d: %v", angle, err)
		}
		return b
	}
	mustReweight := func(edges int, seed uint64) []byte {
		b, err := canonReweight(&BatchSpec{Op: "reweight", Edges: edges, Seed: seed})
		if err != nil {
			t.Fatalf("reweight %d/%d: %v", edges, seed, err)
		}
		return b
	}
	encs := map[string]string{
		"init dmr":         string(canonInit(InitSpec{Kind: "dmr", Variant: "g-d", Scale: "small", Seed: 42})),
		"init dmr seed 43": string(canonInit(InitSpec{Kind: "dmr", Variant: "g-d", Scale: "small", Seed: 43})),
		"init dmr g-dnc":   string(canonInit(InitSpec{Kind: "dmr", Variant: "g-dnc", Scale: "small", Seed: 42})),
		// Field-boundary probe: ("dm","rg-d") must not collide with ("dmr","g-d").
		"init boundary":    string(canonInit(InitSpec{Kind: "dm", Variant: "rg-d", Scale: "small", Seed: 42})),
		"tombstone idle":   string(canonTombstone("idle")),
		"tombstone closed": string(canonTombstone("closed")),
		"refine 2500":      string(mustRefine(2500)),
		"refine 2501":      string(mustRefine(2501)),
		"reweight 16/1":    string(mustReweight(16, 1)),
		"reweight 16/2":    string(mustReweight(16, 2)),
		"reweight 17/1":    string(mustReweight(17, 1)),
	}
	seen := map[string]string{}
	for name, enc := range encs {
		if enc[0] != canonVersion {
			t.Errorf("%s: encoding does not lead with the version byte", name)
		}
		if prev, dup := seen[enc]; dup {
			t.Errorf("encoding collision: %q and %q produce identical bytes", prev, name)
		}
		seen[enc] = name
	}
}

// TestCanonValidation pins the batch parameter ranges.
func TestCanonValidation(t *testing.T) {
	for _, angle := range []int{0, -1, 3001} {
		if _, err := canonRefine(&BatchSpec{Op: "refine", AngleCentideg: angle}); err == nil {
			t.Errorf("refine angle %d: want range error", angle)
		}
	}
	for _, edges := range []int{0, -5, 1<<16 + 1} {
		if _, err := canonReweight(&BatchSpec{Op: "reweight", Edges: edges}); err == nil {
			t.Errorf("reweight edges %d: want range error", edges)
		}
	}
	if _, err := canonRefine(&BatchSpec{Op: "refine", AngleCentideg: 3000}); err != nil {
		t.Errorf("refine angle 3000 (inclusive bound): %v", err)
	}
	if _, err := canonReweight(&BatchSpec{Op: "reweight", Edges: 1 << 16}); err != nil {
		t.Errorf("reweight edges 65536 (inclusive bound): %v", err)
	}
}

// TestChainHashSensitivity: the link hash must react to every one of its
// four inputs, and to nothing else (recomputation is deterministic).
func TestChainHashSensitivity(t *testing.T) {
	var prev, prev2 [sha256.Size]byte
	prev2[0] = 1
	payload := canonTombstone("idle")
	base := chainHash(prev, payload, 10, 20)
	if base != chainHash(prev, payload, 10, 20) {
		t.Fatal("chainHash not deterministic")
	}
	variants := map[string][sha256.Size]byte{
		"prev":     chainHash(prev2, payload, 10, 20),
		"payload":  chainHash(prev, canonTombstone("closed"), 10, 20),
		"stateFP":  chainHash(prev, payload, 11, 20),
		"resultFP": chainHash(prev, payload, 10, 21),
	}
	for name, got := range variants {
		if got == base {
			t.Errorf("chainHash ignores %s", name)
		}
	}
}

// TestChainHexRoundtrip covers the receipt-presentation helpers.
func TestChainHexRoundtrip(t *testing.T) {
	var c [sha256.Size]byte
	for i := range c {
		c[i] = byte(i * 7)
	}
	s := chainHex(c)
	if len(s) != 64 || strings.ToLower(s) != s {
		t.Fatalf("chainHex %q: want 64 lowercase hex chars", s)
	}
	back, err := chainFromHex(s)
	if err != nil || back != c {
		t.Fatalf("roundtrip failed: %v", err)
	}
	for _, bad := range []string{"", "zz", s[:62], s + "00"} {
		if _, err := chainFromHex(bad); err == nil {
			t.Errorf("chainFromHex(%q): want error", bad)
		}
	}
	if got := fpHex(0xdeadbeef); got != "00000000deadbeef" {
		t.Errorf("fpHex = %q, want 16-digit zero-padded hex", got)
	}
}
