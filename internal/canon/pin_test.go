package canon_test

import (
	"fmt"
	"testing"

	"galois"
	"galois/internal/apps/mm"
	"galois/internal/graph"
	"galois/internal/session"
)

// TestPinnedBytes pins fingerprints and chain links that no golden
// covers, at values recorded before their encoders moved into this
// package: mm's fingerprint, and a dmr and an sssp session chain (init, one
// batch, tombstone), whose sssp state fingerprints fold the weight array.
// bfs, mis, sssp, msf, pfp, dt and dmr results are pinned by the harness's
// schedule golden, cache keys by rescache's FuzzKeyOf and router backend
// ids by router's TestBackendIDPinned.
func TestPinnedBytes(t *testing.T) {
	g := graph.Symmetrize(graph.RandomKOut(3000, 5, 42))
	opts := []galois.Option{galois.WithThreads(2), galois.WithSched(galois.Deterministic)}
	for _, c := range []struct {
		name string
		got  uint64
		want string
	}{
		{"mm seq", mm.Seq(g).Fingerprint(), "ef3998b7586d8368"},
		{"mm g-d", mm.Galois(g, opts...).Fingerprint(), "26344e00cdaae3c9"},
	} {
		if got := fmt.Sprintf("%016x", c.got); got != c.want {
			t.Errorf("%s fingerprint %s, pinned %s", c.name, got, c.want)
		}
	}

	run := func(k *session.Kind, state any, b session.BatchSpec) (uint64, uint64, error) {
		stateFP, resultFP, _, err := k.Apply(state, b, opts)
		return stateFP, resultFP, err
	}
	type link struct{ op, stateFP, resultFP, chain string }
	m := session.NewManager(session.DefaultKinds(), 2)
	for _, c := range []struct {
		kind  string
		batch session.BatchSpec
		want  []link
	}{
		{"dmr", session.BatchSpec{Op: "refine", AngleCentideg: 2500}, []link{
			{"init", "d7b3a981612af83a", "", "c3898c73ec9b84dd268f86d04d397920264c4446909c514a5523ec3fae42d3dc"},
			{"refine", "c0f8495f0e1d7190", "c0f8495f0e1d7190", "0d0ce857faa5654a90ba002acb5e16135e7dcb2b920743de643a6b50104599b1"},
			{"tombstone", "c0f8495f0e1d7190", "", "beadfad2c0a9a3e2a7e6eb8a3a3e6069f0fd65a28222cec553e4705643bb6fc4"},
		}},
		{"sssp", session.BatchSpec{Op: "reweight", Edges: 64, Seed: 3}, []link{
			{"init", "689885586c6bff7b", "", "1d772996a7d934bbcd9007165958b6891a2cb9ebc4ce18c30d93f15a0d52fa4b"},
			{"reweight", "5f4ea2a4b6e98c5b", "9ebd8a0c7ba32f1b", "69122a39a1f849d7300dc405401b05ba06eff986458592265509666246eb6007"},
			{"tombstone", "5f4ea2a4b6e98c5b", "", "fea28fff2af4306a0155a6159404c4274908a7cf0678d824a663cced863be5c5"},
		}},
	} {
		s, err := m.Create(session.InitSpec{Kind: c.kind, Seed: 7}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Batch(c.batch, 1, run); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(s.ID); err != nil {
			t.Fatal(err)
		}
		_, links, _ := s.Snapshot()
		if len(links) != len(c.want) {
			t.Fatalf("%s: %d links, want %d", c.kind, len(links), len(c.want))
		}
		for i, l := range links {
			if got := (link{l.Batch.Op, l.StateFP, l.ResultFP, l.Chain}); got != c.want[i] {
				t.Errorf("%s link %d: %+v, pinned %+v", c.kind, i, got, c.want[i])
			}
		}
	}
}
