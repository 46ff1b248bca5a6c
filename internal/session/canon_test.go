package session

import (
	"bytes"
	"crypto/sha256"
	"fmt"
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

// FuzzCanonEncodings: two distinct init, tombstone, refine or reweight
// tuples never encode to the same bytes, records of different types never
// collide, and every record leads with the version byte. A batch tuple
// outside its range has no encoding and drops out. The seeds probe field
// boundaries (a byte moved from one string to the next), a seed that
// spells a string's tail, a type's name in another type's field, and the
// range edges.
func FuzzCanonEncodings(f *testing.F) {
	f.Add("dmr", "g-d", "small", uint64(42), "idle", 2500, 16, uint64(1),
		"dmr", "g-d", "small", uint64(43), "closed", 2501, 17, uint64(1))
	f.Add("dmr", "g-d", "small", uint64(42), "idle", 2500, 16, uint64(1),
		"dm", "rg-d", "small", uint64(42), "idl", 2500, 16, uint64(2))
	f.Add("sssp", "g-dnc", "smal", uint64(0x6c), "", 3000, 1<<16, uint64(0),
		"sssp", "g-dnc", "small", uint64(0), "refine", 1, 1, uint64(1<<63))
	f.Add("", "", "", uint64(0), "init", 0, 0, uint64(0),
		"init", "", "", uint64(0), "", 3001, 1<<16+1, uint64(0))
	f.Add(strings.Repeat("k", 200), "g-d", "small", uint64(7), "reweight", 127, 128, uint64(7),
		strings.Repeat("k", 201), "g-d", "small", uint64(7), "reweight", 128, 127, uint64(7))
	f.Fuzz(func(t *testing.T, kind1, variant1, scale1 string, seed1 uint64, reason1 string, angle1, edges1 int, rseed1 uint64,
		kind2, variant2, scale2 string, seed2 uint64, reason2 string, angle2, edges2 int, rseed2 uint64) {
		type record struct {
			tuple string // the record's type and fields, %q-quoted: equal iff the tuples are
			enc   []byte
		}
		var recs []record
		add := func(enc []byte, err error, format string, fields ...any) {
			if err != nil {
				return
			}
			tuple := fmt.Sprintf(format, fields...)
			if len(enc) == 0 || enc[0] != canonVersion {
				t.Fatalf("%s: encoding does not lead with the version byte", tuple)
			}
			recs = append(recs, record{tuple, enc})
		}
		for _, in := range []struct {
			kind, variant, scale string
			seed                 uint64
			reason               string
			angle, edges         int
			rseed                uint64
		}{
			{kind1, variant1, scale1, seed1, reason1, angle1, edges1, rseed1},
			{kind2, variant2, scale2, seed2, reason2, angle2, edges2, rseed2},
		} {
			add(canonInit(InitSpec{Kind: in.kind, Variant: in.variant, Scale: in.scale, Seed: in.seed}), nil,
				"init(%q, %q, %q, %d)", in.kind, in.variant, in.scale, in.seed)
			add(canonTombstone(in.reason), nil, "tombstone(%q)", in.reason)
			enc, err := canonRefine(&BatchSpec{Op: "refine", AngleCentideg: in.angle})
			add(enc, err, "refine(%d)", in.angle)
			enc, err = canonReweight(&BatchSpec{Op: "reweight", Edges: in.edges, Seed: in.rseed})
			add(enc, err, "reweight(%d, %d)", in.edges, in.rseed)
		}
		for i := range recs {
			for j := i + 1; j < len(recs); j++ {
				a, b := recs[i], recs[j]
				if a.tuple != b.tuple && bytes.Equal(a.enc, b.enc) {
					t.Fatalf("%s and %s share the encoding %x", a.tuple, b.tuple, a.enc)
				}
			}
		}
	})
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
