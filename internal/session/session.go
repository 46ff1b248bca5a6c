package session

import (
	cryptorand "crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"

	"galois/internal/canon"
	"galois/internal/inputs"
)

// ApplyRunner executes one batch during a live submission or a replay.
// The serving layer supplies it to interpose engine checkout, scheduler
// options, deadlines and metrics. It must return the post-state and result
// fingerprints from k.Apply.
type ApplyRunner func(k *Kind, state any, b BatchSpec) (stateFP, resultFP uint64, err error)

// Session is one pinned mutable input plus its receipt chain. All access
// is serialized by mu: batches against the same session execute one at a
// time (the state is the shared resource), which is also what makes the
// chain well-ordered.
type Session struct {
	ID string

	mu       sync.Mutex
	kind     *Kind
	init     InitSpec
	sc       inputs.Scale
	state    any
	links    []Link
	head     [canon.Size]byte
	lastFP   uint64 // state fingerprint after the newest link
	lastUsed int64  // unix nanos of the last batch, injected by the caller
	evicted  bool
}

// Manager owns the session table. The ordered ids slice — not the map —
// drives every sweep, so iteration order is deterministic.
type Manager struct {
	mu       sync.Mutex
	kinds    *KindSet
	sessions map[string]*Session
	ids      []string
	tag      string // per-manager instance tag making ids globally unique
	nextID   int
	live     int
	maxLive  int
}

// NewManager returns a manager over kinds holding at most maxLive
// un-evicted sessions (default 64 when maxLive <= 0).
//
// Session ids carry a random per-manager instance tag: two galoisd
// processes must never mint the same id, because a routing tier keys its
// session-stickiness map on the id alone. The tag is serving metadata —
// ids never enter a chain hash or a receipt, so the randomness is
// behavior-free (and invisible to detlint's fingerprint taint).
func NewManager(kinds *KindSet, maxLive int) *Manager {
	if maxLive <= 0 {
		maxLive = 64
	}
	var buf [4]byte
	if _, err := cryptorand.Read(buf[:]); err != nil {
		// Entropy exhaustion is effectively unreachable; a fixed tag only
		// costs cross-process uniqueness, never correctness of one process.
		copy(buf[:], "galo")
	}
	return &Manager{
		kinds:    kinds,
		sessions: make(map[string]*Session),
		tag:      hex.EncodeToString(buf[:]),
		maxLive:  maxLive,
	}
}

// Kinds returns the manager's kind set.
func (m *Manager) Kinds() *KindSet { return m.kinds }

// Live returns the number of un-evicted sessions.
func (m *Manager) Live() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live
}

// normalizeInit validates is against the kind set and fills defaults.
// g-n is rejected outright: a nondeterministic fingerprint cannot anchor
// a chain link.
func (m *Manager) normalizeInit(is InitSpec) (InitSpec, *Kind, inputs.Scale, error) {
	k := m.kinds.Lookup(is.Kind)
	if k == nil {
		return is, nil, inputs.Scale{}, fmt.Errorf("unknown session kind %q (have %v)", is.Kind, m.kinds.Names())
	}
	switch is.Variant {
	case "":
		is.Variant = "g-d"
	case "g-d", "g-dnc":
	case "g-n":
		return is, nil, inputs.Scale{}, fmt.Errorf("variant g-n cannot form a receipt chain (nondeterministic fingerprints); use g-d or g-dnc")
	default:
		return is, nil, inputs.Scale{}, fmt.Errorf("unknown variant %q (g-d|g-dnc)", is.Variant)
	}
	if is.Scale == "" {
		is.Scale = "small"
	}
	sc, err := inputs.ScaleByName(is.Scale)
	if err != nil {
		return is, nil, inputs.Scale{}, err
	}
	return is, k, sc, nil
}

// Create builds a session: derives the initial state through the kind's
// canonical Init and seals the genesis link over the canonical init spec
// and the initial state fingerprint. State construction runs on the
// caller's goroutine — it needs no engine, and its result is never served
// from a cache (a session is identified by its id, not its content).
func (m *Manager) Create(is InitSpec, now int64) (*Session, error) {
	is, k, sc, err := m.normalizeInit(is)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.live >= m.maxLive {
		m.mu.Unlock()
		return nil, ErrTooManySessions
	}
	m.live++ // reserve the slot before the (slow) build
	m.nextID++
	id := fmt.Sprintf("s%s-%d", m.tag, m.nextID)
	m.mu.Unlock()

	state, stateFP := k.Init(sc, is.Seed)
	chain := chainHash(genesisPrev, canonInit(is), stateFP, 0)
	s := &Session{
		ID:    id,
		kind:  k,
		init:  is,
		sc:    sc,
		state: state,
		links: []Link{{
			Index:   0,
			Prev:    chainHex(genesisPrev),
			Batch:   BatchSpec{Op: "init"},
			StateFP: canon.Hex(stateFP),
			Chain:   chainHex(chain),
		}},
		head:     chain,
		lastFP:   stateFP,
		lastUsed: now,
	}
	m.mu.Lock()
	m.sessions[id] = s
	m.ids = append(m.ids, id)
	m.mu.Unlock()
	return s, nil
}

// Get returns the session with that id (evicted sessions included — their
// chains remain readable).
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.sessions[id]
	if s == nil {
		return nil, ErrNotFound
	}
	return s, nil
}

// EvictIdle sweeps sessions whose last batch is at least idle nanoseconds
// before now, dropping their state and sealing a tombstone link. Sessions
// mid-batch are skipped (they are, by definition, not idle). Returns the
// evicted ids in sweep order.
func (m *Manager) EvictIdle(now, idle int64) []string {
	if idle <= 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for _, id := range m.ids {
		s := m.sessions[id]
		if !s.mu.TryLock() {
			continue
		}
		if !s.evicted && now-s.lastUsed >= idle {
			s.evictLocked("idle")
			m.live--
			out = append(out, id)
		}
		s.mu.Unlock()
	}
	return out
}

// Close evicts one session with reason "closed". Idempotent.
func (m *Manager) Close(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.sessions[id]
	if s == nil {
		return ErrNotFound
	}
	s.mu.Lock()
	if !s.evicted {
		s.evictLocked("closed")
		m.live--
	}
	s.mu.Unlock()
	return nil
}

// evictLocked seals the tombstone: a final chain link over the eviction
// reason and the last state fingerprint, so even the act of forgetting
// the state is attested. Caller holds s.mu.
func (s *Session) evictLocked(reason string) {
	chain := chainHash(s.head, canonTombstone(reason), s.lastFP, 0)
	s.links = append(s.links, Link{
		Index:   len(s.links),
		Prev:    chainHex(s.head),
		Batch:   BatchSpec{Op: "tombstone", Reason: reason},
		StateFP: canon.Hex(s.lastFP),
		Chain:   chainHex(chain),
	})
	s.head = chain
	s.state = nil
	s.evicted = true
}

// Init returns the session's normalized init spec.
func (s *Session) Init() InitSpec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.init
}

// Snapshot returns the init spec, a copy of the chain, and the evicted
// flag. It does not count as use (it never delays idle eviction).
func (s *Session) Snapshot() (InitSpec, []Link, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.init, append([]Link(nil), s.links...), s.evicted
}

// Batch applies one mutation batch, extending the chain by one link. The
// runner performs the actual execution (under the session lock, so
// batches serialize). A batch whose Prev names a historical link with an
// identical canonical encoding returns that recorded link with Replayed
// set — the idempotent-retry path — without re-executing.
func (s *Session) Batch(b BatchSpec, now int64, run ApplyRunner) (Link, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.evicted {
		return Link{}, ErrEvicted
	}
	enc, err := s.kind.Canon(&b)
	if err != nil {
		return Link{}, err
	}
	if b.Prev != "" && b.Prev != chainHex(s.head) {
		if l, ok := s.replayLocked(b.Prev, enc); ok {
			return l, nil
		}
		return Link{}, ErrPrevMismatch
	}

	stateFP, resultFP, err := run(s.kind, s.state, b)
	if err != nil {
		return Link{}, err
	}
	chain := chainHash(s.head, enc, stateFP, resultFP)
	link := Link{
		Index: len(s.links),
		Prev:  chainHex(s.head),
		// Serving-time controls are scrubbed from the recorded batch: the
		// chain (and any replay of it) covers only the canonical fields.
		Batch:    scrub(b),
		StateFP:  canon.Hex(stateFP),
		ResultFP: canon.Hex(resultFP),
		Chain:    chainHex(chain),
	}
	s.links = append(s.links, link)
	s.head = chain
	s.lastFP = stateFP
	s.lastUsed = now
	return link, nil
}

// replayLocked finds a historical link whose predecessor is prev and
// whose batch re-encodes to enc, i.e. the exact submission that built
// it. Caller holds s.mu.
func (s *Session) replayLocked(prev string, enc []byte) (Link, bool) {
	for i := 1; i < len(s.links); i++ {
		l := s.links[i]
		if l.Prev != prev || l.Batch.Op == "tombstone" {
			continue
		}
		rc, err := s.kind.Canon(&l.Batch)
		if err == nil && string(rc) == string(enc) {
			l.Replayed = true
			return l, true
		}
	}
	return Link{}, false
}

func scrub(b BatchSpec) BatchSpec {
	b.Prev, b.Threads, b.TimeoutMS = "", 0, 0
	return b
}

// Verify replays the recorded chain from the recorded init spec: fresh
// state, every batch re-applied through run, every link recomputed and
// compared field-for-field against the record. expectFinal, when
// non-empty, is additionally checked against the recomputed head — this
// is how a client holding only its last receipt audits the whole session.
// The replay works from a snapshot, so live batches are not blocked while
// it runs, and it works on evicted sessions (the chain outlives the
// state).
func (s *Session) Verify(expectFinal string, run ApplyRunner) (VerifyOutcome, error) {
	init, links, _ := s.Snapshot()
	return ReplayChain(s.kind, s.sc, init, links, expectFinal, run)
}

// ReplayChain is Verify's engine, exposed for offline audit: given a kind,
// an init spec and a recorded chain, recompute everything and report the
// first divergence.
func ReplayChain(k *Kind, sc inputs.Scale, init InitSpec, links []Link, expectFinal string, run ApplyRunner) (VerifyOutcome, error) {
	if len(links) == 0 {
		return VerifyOutcome{FailedIndex: -1, Reason: "empty chain"}, nil
	}
	state, stateFP := k.Init(sc, init.Seed)
	head := chainHash(genesisPrev, canonInit(init), stateFP, 0)
	lastFP := stateFP
	if got := chainHex(head); got != links[0].Chain {
		return VerifyOutcome{FailedIndex: 0, Links: len(links), FinalChain: got,
			Reason: fmt.Sprintf("genesis link: recomputed %s, recorded %s", got, links[0].Chain)}, nil
	}
	for i := 1; i < len(links); i++ {
		l := links[i]
		var chain [canon.Size]byte
		var stFP, resFP uint64
		if l.Batch.Op == "tombstone" {
			chain = chainHash(head, canonTombstone(l.Batch.Reason), lastFP, 0)
			stFP = lastFP
		} else {
			enc, err := k.Canon(&l.Batch)
			if err != nil {
				return VerifyOutcome{FailedIndex: i, Links: len(links), FinalChain: chainHex(head),
					Reason: fmt.Sprintf("link %d: recorded batch does not canonicalize: %v", i, err)}, nil
			}
			var rerr error
			stFP, resFP, rerr = run(k, state, l.Batch)
			if rerr != nil {
				return VerifyOutcome{}, fmt.Errorf("replaying link %d: %w", i, rerr)
			}
			chain = chainHash(head, enc, stFP, resFP)
			lastFP = stFP
			if canon.Hex(resFP) != l.ResultFP {
				return VerifyOutcome{FailedIndex: i, Links: len(links), FinalChain: chainHex(chain),
					Reason: fmt.Sprintf("link %d: recomputed result %s, recorded %s", i, canon.Hex(resFP), l.ResultFP)}, nil
			}
		}
		if got := chainHex(chain); got != l.Chain || canon.Hex(stFP) != l.StateFP {
			return VerifyOutcome{FailedIndex: i, Links: len(links), FinalChain: got,
				Reason: fmt.Sprintf("link %d: recomputed chain %s state %s, recorded chain %s state %s",
					i, got, canon.Hex(stFP), l.Chain, l.StateFP)}, nil
		}
		head = chain
	}
	out := VerifyOutcome{Match: true, FailedIndex: -1, Links: len(links), FinalChain: chainHex(head)}
	if expectFinal != "" && expectFinal != out.FinalChain {
		out.Match = false
		out.FailedIndex = len(links) - 1
		out.Reason = fmt.Sprintf("presented final chain %s != recomputed %s", expectFinal, out.FinalChain)
	}
	return out, nil
}
