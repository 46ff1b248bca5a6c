package session

import (
	"errors"
	"fmt"
	"testing"

	"galois"
)

// testRunner executes batches directly (no engine pool, no admission) under
// the deterministic scheduler — the session layer's contract is the same
// whichever executor hosts it.
func testRunner(threads int) ApplyRunner {
	return func(k *Kind, state any, b BatchSpec) (uint64, uint64, error) {
		stFP, resFP, _, err := k.Apply(state, b, []galois.Option{
			galois.WithThreads(threads), galois.WithSched(galois.Deterministic)})
		return stFP, resFP, err
	}
}

func newTestManager() *Manager { return NewManager(DefaultKinds(), 0) }

// ssspChain builds an n-batch sssp session (the cheap kind) and returns it.
func ssspChain(t *testing.T, m *Manager, n int) *Session {
	t.Helper()
	s, err := m.Create(InitSpec{Kind: "sssp", Seed: 42}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		b := BatchSpec{Op: "reweight", Edges: 8 + i, Seed: uint64(100 + i)}
		if _, err := s.Batch(b, int64(i+2), testRunner(1)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	return s
}

// TestCreateNormalizesAndRejects covers init validation: defaults filled,
// g-n refused (a nondeterministic fingerprint cannot anchor a chain),
// unknown kinds/variants/scales refused.
func TestCreateNormalizesAndRejects(t *testing.T) {
	m := newTestManager()
	s, err := m.Create(InitSpec{Kind: "sssp", Seed: 42}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if is := s.Init(); is.Variant != "g-d" || is.Scale != "small" {
		t.Errorf("defaults not filled: %+v", is)
	}
	_, links, _ := s.Snapshot()
	if len(links) != 1 || links[0].Batch.Op != "init" || links[0].Index != 0 {
		t.Fatalf("genesis link malformed: %+v", links)
	}

	for _, is := range []InitSpec{
		{Kind: "sssp", Variant: "g-n"},
		{Kind: "nope"},
		{Kind: "sssp", Variant: "weird"},
		{Kind: "sssp", Scale: "galactic"},
	} {
		if _, err := m.Create(is, 1); err == nil {
			t.Errorf("Create(%+v): want error", is)
		}
	}
}

// TestChainVerifies: a multi-batch session replays byte-identically, from
// the recorded chain and from the last receipt alone; a wrong final
// fingerprint is flagged at the last link.
func TestChainVerifies(t *testing.T) {
	m := newTestManager()
	s := ssspChain(t, m, 3)
	_, links, _ := s.Snapshot()
	if len(links) != 4 {
		t.Fatalf("chain has %d links, want 4", len(links))
	}

	vo, err := s.Verify("", testRunner(1))
	if err != nil {
		t.Fatal(err)
	}
	if !vo.Match || vo.FailedIndex != -1 || vo.FinalChain != links[3].Chain {
		t.Fatalf("clean replay: %+v", vo)
	}

	// The last receipt alone authenticates the whole history.
	vo, err = s.Verify(links[3].Chain, testRunner(2))
	if err != nil {
		t.Fatal(err)
	}
	if !vo.Match {
		t.Fatalf("verify from last receipt (threads 2): %+v", vo)
	}

	vo, err = s.Verify(links[2].Chain, testRunner(1)) // stale receipt ≠ head
	if err != nil {
		t.Fatal(err)
	}
	if vo.Match || vo.FailedIndex != 3 {
		t.Fatalf("stale final fingerprint accepted: %+v", vo)
	}
}

// TestTamperDetection: corrupting any field of any middle link makes the
// replay fail at exactly that link.
func TestTamperDetection(t *testing.T) {
	m := newTestManager()
	s := ssspChain(t, m, 3)
	init, orig, _ := s.Snapshot()
	k := m.Kinds().Lookup("sssp")

	tampers := []struct {
		name string
		mut  func(*Link)
	}{
		{"chain", func(l *Link) { l.Chain = l.Chain[:63] + "0" }},
		{"state_fp", func(l *Link) { l.StateFP = "0123456789abcdef" }},
		{"result_fp", func(l *Link) { l.ResultFP = "0123456789abcdef" }},
		{"batch", func(l *Link) { l.Batch.Edges++ }},
	}
	for i := 1; i < len(orig); i++ {
		for _, tm := range tampers {
			links := append([]Link(nil), orig...)
			tm.mut(&links[i])
			if links[i] == orig[i] {
				// chain tamper may be a no-op if the last hex digit was already 0
				links[i].Chain = links[i].Chain[:63] + "1"
			}
			vo, err := ReplayChain(k, s.sc, init, links, "", testRunner(1))
			if err != nil {
				t.Fatalf("link %d %s: %v", i, tm.name, err)
			}
			if vo.Match || vo.FailedIndex != i {
				t.Errorf("link %d %s tamper: match=%v failed_index=%d, want failure at %d (%s)",
					i, tm.name, vo.Match, vo.FailedIndex, i, vo.Reason)
			}
		}
	}

	// Genesis tamper: a forged initial spec fails at link 0.
	forged := init
	forged.Seed++
	vo, err := ReplayChain(k, s.sc, forged, orig, "", testRunner(1))
	if err != nil {
		t.Fatal(err)
	}
	if vo.Match || vo.FailedIndex != 0 {
		t.Errorf("forged init seed: %+v, want failure at genesis", vo)
	}
}

// TestPrevReplayAndMismatch covers the idempotent-retry path: a duplicate
// submission naming a historical Prev gets the recorded link back without
// re-execution; a different batch against a stale Prev is rejected.
func TestPrevReplayAndMismatch(t *testing.T) {
	m := newTestManager()
	s, err := m.Create(InitSpec{Kind: "sssp", Seed: 42}, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, links, _ := s.Snapshot()
	genesis := links[0].Chain

	b1 := BatchSpec{Op: "reweight", Edges: 8, Seed: 7, Prev: genesis}
	l1, err := s.Batch(b1, 2, testRunner(1))
	if err != nil {
		t.Fatal(err)
	}
	b2 := BatchSpec{Op: "reweight", Edges: 9, Seed: 8, Prev: l1.Chain}
	l2, err := s.Batch(b2, 3, testRunner(1))
	if err != nil {
		t.Fatal(err)
	}

	// Retry of b1 (lost response): same Prev, same payload → recorded link,
	// marked Replayed, chain unextended.
	executions := 0
	counting := func(k *Kind, state any, b BatchSpec) (uint64, uint64, error) {
		executions++
		return testRunner(1)(k, state, b)
	}
	got, err := s.Batch(b1, 4, counting)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Replayed || got.Chain != l1.Chain || executions != 0 {
		t.Errorf("idempotent retry: replayed=%v chain match=%v executions=%d",
			got.Replayed, got.Chain == l1.Chain, executions)
	}
	if _, links, _ := s.Snapshot(); len(links) != 3 {
		t.Errorf("replay extended the chain to %d links", len(links))
	}

	// A *different* batch against the stale genesis Prev is a lost race.
	_, err = s.Batch(BatchSpec{Op: "reweight", Edges: 30, Seed: 9, Prev: genesis}, 5, testRunner(1))
	if !errors.Is(err, ErrPrevMismatch) {
		t.Errorf("stale prev with new payload: err=%v, want ErrPrevMismatch", err)
	}

	// Prev naming the current head is the happy fast path.
	if _, err := s.Batch(BatchSpec{Op: "reweight", Edges: 10, Seed: 10, Prev: l2.Chain}, 6, testRunner(1)); err != nil {
		t.Errorf("prev=head: %v", err)
	}
}

// TestEvictionTombstone: idle eviction seals a tombstone link; the chain
// stays readable and verifiable, further batches get ErrEvicted, and the
// manager's live count drops.
func TestEvictionTombstone(t *testing.T) {
	m := newTestManager()
	s := ssspChain(t, m, 2)
	busy := ssspChain(t, m, 1) // recently used — must survive the sweep
	if m.Live() != 2 {
		t.Fatalf("live = %d, want 2", m.Live())
	}

	// s's last batch is at now=3; busy's at now=2... both old. Touch busy.
	if _, err := busy.Batch(BatchSpec{Op: "reweight", Edges: 8, Seed: 1}, 1_000, testRunner(1)); err != nil {
		t.Fatal(err)
	}
	evicted := m.EvictIdle(1_500, 1_000)
	if len(evicted) != 1 || evicted[0] != s.ID {
		t.Fatalf("evicted %v, want [%s]", evicted, s.ID)
	}
	if m.Live() != 1 {
		t.Errorf("live = %d after eviction, want 1", m.Live())
	}

	_, links, ev := s.Snapshot()
	last := links[len(links)-1]
	if !ev || last.Batch.Op != "tombstone" || last.Batch.Reason != "idle" {
		t.Fatalf("tombstone missing: evicted=%v last=%+v", ev, last)
	}
	if _, err := s.Batch(BatchSpec{Op: "reweight", Edges: 8, Seed: 1}, 2_000, testRunner(1)); !errors.Is(err, ErrEvicted) {
		t.Errorf("batch after eviction: err=%v, want ErrEvicted", err)
	}

	// The sealed chain — tombstone included — still replays.
	vo, err := s.Verify(last.Chain, testRunner(1))
	if err != nil {
		t.Fatal(err)
	}
	if !vo.Match {
		t.Errorf("evicted session fails verify: %+v", vo)
	}

	// Close is idempotent and tombstones with its own reason.
	if err := m.Close(busy.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(busy.ID); err != nil {
		t.Fatal(err)
	}
	if _, links, _ := busy.Snapshot(); links[len(links)-1].Batch.Reason != "closed" {
		t.Errorf("close tombstone reason = %q", links[len(links)-1].Batch.Reason)
	}
	if err := m.Close("s999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("close unknown: %v", err)
	}
	if m.Live() != 0 {
		t.Errorf("live = %d at end, want 0", m.Live())
	}
}

// TestSessionCap: creation beyond maxLive gets ErrTooManySessions until a
// session is evicted.
func TestSessionCap(t *testing.T) {
	m := NewManager(DefaultKinds(), 2)
	a, err := m.Create(InitSpec{Kind: "sssp", Seed: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(InitSpec{Kind: "sssp", Seed: 2}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(InitSpec{Kind: "sssp", Seed: 3}, 1); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("over cap: err=%v, want ErrTooManySessions", err)
	}
	if err := m.Close(a.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(InitSpec{Kind: "sssp", Seed: 3}, 1); err != nil {
		t.Errorf("create after close: %v", err)
	}
}

// TestChainThreadIndependence: the same batch sequence yields the same
// chain at different thread counts — for both kinds. This is the paper's
// portability property lifted to mutation chains.
func TestChainThreadIndependence(t *testing.T) {
	for _, kind := range []string{"sssp", "dmr"} {
		batch := BatchSpec{Op: "reweight", Edges: 16, Seed: 9}
		if kind == "dmr" {
			batch = BatchSpec{Op: "refine", AngleCentideg: 2600}
		}
		var chains []string
		for _, threads := range []int{1, 4} {
			m := newTestManager()
			s, err := m.Create(InitSpec{Kind: kind, Seed: 42}, 1)
			if err != nil {
				t.Fatal(err)
			}
			l, err := s.Batch(batch, 2, testRunner(threads))
			if err != nil {
				t.Fatal(err)
			}
			chains = append(chains, l.Chain)
		}
		if chains[0] != chains[1] {
			t.Errorf("%s: chain varies with threads: %s != %s", kind, chains[0], chains[1])
		}
	}
}

// TestGetAndSnapshotDoNotDelayEviction: reads are not "use".
func TestGetAndSnapshotDoNotDelayEviction(t *testing.T) {
	m := newTestManager()
	s := ssspChain(t, m, 1)
	if got, err := m.Get(s.ID); err != nil || got != s {
		t.Fatalf("Get: %v", err)
	}
	if _, err := m.Get("s999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get unknown: %v", err)
	}
	s.Snapshot() // must not refresh lastUsed
	if evicted := m.EvictIdle(10_000, 1_000); len(evicted) != 1 {
		t.Errorf("snapshot delayed eviction: evicted %v", evicted)
	}
}

// TestVerifyOutcomeString keeps the failure reasons human-readable; a
// regression here turns audit logs into hashes only.
func TestVerifyOutcomeString(t *testing.T) {
	m := newTestManager()
	s := ssspChain(t, m, 1)
	init, links, _ := s.Snapshot()
	links[1].Batch.Edges++
	vo, err := ReplayChain(m.Kinds().Lookup("sssp"), s.sc, init, links, "", testRunner(1))
	if err != nil {
		t.Fatal(err)
	}
	if vo.Match || vo.Reason == "" {
		t.Errorf("tampered replay: %+v, want non-empty reason", vo)
	}
	if want := fmt.Sprintf("link %d", vo.FailedIndex); !contains(vo.Reason, want) {
		t.Errorf("reason %q does not name %s", vo.Reason, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
