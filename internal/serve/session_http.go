package serve

import (
	"cmp"
	"errors"
	"net/http"
	"time"

	"galois"
	"galois/internal/session"
	"galois/internal/stats"
)

// SessionInfo is the wire shape of GET /sessions/{id} and the creation
// response: the normalized init spec plus the full receipt chain.
type SessionInfo struct {
	ID      string           `json:"id"`
	Init    session.InitSpec `json:"init"`
	Evicted bool             `json:"evicted"`
	Head    string           `json:"head"`
	Links   []session.Link   `json:"links"`
}

// BatchResult is the wire shape of POST /sessions/{id}/batches: the new
// chain link plus the run's serving-side measurements. A replayed link
// (idempotent retry) carries Replayed and zero measurements.
type BatchResult struct {
	ID        string       `json:"id"`
	Link      session.Link `json:"link"`
	WallNS    int64        `json:"wall_ns"`
	QueueNS   int64        `json:"queue_ns"`
	Commits   uint64       `json:"commits"`
	Aborts    uint64       `json:"aborts"`
	Rounds    uint64       `json:"rounds"`
	EngineHit bool         `json:"engine_hit"`
}

// sessionVerifyRequest is the optional body of POST /sessions/{id}/verify:
// a client holding only its final receipt posts that chain fingerprint and
// the server checks the full replay against it.
type sessionVerifyRequest struct {
	FinalChain string `json:"final_chain,omitempty"`
	Threads    int    `json:"threads,omitempty"`
}

// runBatch executes one session batch on a worker. Batches share the
// executor with one-shot jobs: same queue, same workers, same engine pool,
// same deadline semantics. The session's own lock serializes batches
// against the same state; batches on different sessions run concurrently
// on different workers. The session's init spec is read here, not in the
// handler: reading it waits on that lock, and a handler that waited there
// would hold a batch back from admission (no 429, and a deadline that
// starts only after the wait).
func (s *Server) runBatch(tid int, admitted time.Time, sess *session.Session, b session.BatchSpec) (*BatchResult, *httpError) {
	queued := time.Since(admitted)
	is := sess.Init()
	variant := is.Variant
	threads, herr := s.threads(b.Threads, is.Threads)
	if herr != nil {
		return nil, herr
	}
	var (
		wall      time.Duration
		st        stats.Stats
		engineHit bool
	)
	runner := func(k *session.Kind, state any, b session.BatchSpec) (uint64, uint64, error) {
		var stateFP, resultFP uint64
		var aerr error
		herr := s.exec.withEngine(threads, tid, func(eng *galois.Engine, hit bool) {
			engineHit = hit
			opts := schedOpts(variant, threads, eng, nil)
			start := time.Now()
			stateFP, resultFP, st, aerr = k.Apply(state, b, opts)
			wall = time.Since(start)
		})
		if herr != nil {
			return 0, 0, errors.New(herr.msg)
		}
		return stateFP, resultFP, aerr
	}
	now := time.Now().UnixNano() //detlint:ordered idle-eviction bookkeeping only: session.Batch stores the timestamp as lastUsed and never feeds it into the chain hash
	link, err := sess.Batch(b, now, runner)
	if err != nil {
		return nil, sessionError(sess.ID, err)
	}
	s.exec.met.Counter("serve.session.batch").Add(tid, 1)
	if link.Replayed {
		s.exec.met.Counter("serve.session.batch.replayed").Add(tid, 1)
		return &BatchResult{ID: sess.ID, Link: link}, nil
	}
	s.recordRun(tid, Spec{Kind: "session." + is.Kind, Variant: variant, Threads: threads}, st, wall)
	return &BatchResult{
		ID: sess.ID, Link: link,
		WallNS: wall.Nanoseconds(), QueueNS: queued.Nanoseconds(),
		Commits: st.Commits, Aborts: st.Aborts, Rounds: st.Rounds,
		EngineHit: engineHit,
	}, nil
}

// runSessionVerify replays a session's whole chain on one worker with one
// checked-out engine: every link is a real run, because an audit is only
// evidence if it reaches real runs.
func (s *Server) runSessionVerify(tid int, sess *session.Session, expect string, threads int) (*session.VerifyOutcome, *httpError) {
	variant := sess.Init().Variant
	var out session.VerifyOutcome
	var verr error
	herr := s.exec.withEngine(threads, tid, func(eng *galois.Engine, hit bool) {
		runner := func(k *session.Kind, state any, b session.BatchSpec) (uint64, uint64, error) {
			stateFP, resultFP, _, err := k.Apply(state, b, schedOpts(variant, threads, eng, nil))
			return stateFP, resultFP, err
		}
		out, verr = sess.Verify(expect, runner)
	})
	if herr != nil {
		return nil, herr
	}
	if verr != nil {
		return nil, errf(http.StatusInternalServerError, "session %s replay: %v", sess.ID, verr)
	}
	s.exec.met.Counter("serve.session.verify").Add(tid, 1)
	if !out.Match {
		s.exec.met.Counter("serve.session.verify.mismatch").Add(tid, 1)
	}
	return &out, nil
}

// sessionError maps session-package sentinels onto HTTP statuses.
func sessionError(id string, err error) *httpError {
	switch {
	case errors.Is(err, session.ErrNotFound):
		return errf(http.StatusNotFound, "session %s: %v", id, err)
	case errors.Is(err, session.ErrEvicted):
		return errf(http.StatusGone, "session %s: %v (chain remains readable via GET and verifiable via POST verify)", id, err)
	case errors.Is(err, session.ErrPrevMismatch):
		return errf(http.StatusConflict, "session %s: %v", id, err)
	case errors.Is(err, session.ErrTooManySessions):
		return &httpError{status: http.StatusTooManyRequests, msg: err.Error(), retryAfter: 1}
	default:
		return errf(http.StatusBadRequest, "session %s: %v", id, err)
	}
}

// sessionInfo snapshots a session into its wire shape.
func sessionInfo(s *session.Session) *SessionInfo {
	init, links, evicted := s.Snapshot()
	return &SessionInfo{
		ID: s.ID, Init: init, Evicted: evicted,
		Head: links[len(links)-1].Chain, Links: links,
	}
}

// --- session HTTP handlers ---

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	s.sweepSessions()
	var is session.InitSpec
	if !decode(w, r, &is, false) {
		return
	}
	if s.exec.draining() {
		writeError(w, errf(http.StatusServiceUnavailable, "server is draining; not accepting sessions"))
		return
	}
	herr := admitScale(cmp.Or(is.Scale, "small")) // session.Manager's default
	if herr == nil {
		is.Threads, herr = s.threads(is.Threads, 0)
	}
	if herr != nil {
		writeError(w, herr)
		return
	}
	now := time.Now().UnixNano() //detlint:ordered idle-eviction bookkeeping only: session.Create stores the timestamp as lastUsed and never feeds it into the chain hash
	sess, err := s.sessions.Create(is, now)
	if err != nil {
		writeError(w, sessionError("(new)", err))
		return
	}
	s.count("serve.session.create")
	writeJSON(w, http.StatusCreated, sessionInfo(sess))
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	s.sweepSessions()
	sess, err := s.sessions.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, sessionError(r.PathValue("id"), err))
		return
	}
	writeJSON(w, http.StatusOK, sessionInfo(sess))
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.sessions.Close(id); err != nil {
		writeError(w, sessionError(id, err))
		return
	}
	s.count("serve.session.close")
	sess, err := s.sessions.Get(id)
	if err != nil {
		writeError(w, sessionError(id, err))
		return
	}
	writeJSON(w, http.StatusOK, sessionInfo(sess))
}

func (s *Server) handleSessionBatch(w http.ResponseWriter, r *http.Request) {
	s.sweepSessions()
	id := r.PathValue("id")
	var b session.BatchSpec
	if !decode(w, r, &b, false) {
		return
	}
	sess, err := s.sessions.Get(id)
	if err != nil {
		writeError(w, sessionError(id, err))
		return
	}
	// Only the requested threads are checked here; runBatch falls back to
	// the session's, which were checked when it was created.
	if _, herr := s.threads(b.Threads, 0); herr != nil {
		writeError(w, herr)
		return
	}
	timeout := s.cfg.DefaultTimeout
	if b.TimeoutMS > 0 {
		timeout = time.Duration(b.TimeoutMS) * time.Millisecond
	}
	what := func() string { return "session " + id + " batch" }
	res, herr := submit(s.exec, r.Context(), time.Now().Add(timeout), what, func(tid int, admitted time.Time) (*BatchResult, *httpError) {
		return s.runBatch(tid, admitted, sess, b)
	})
	if herr != nil {
		writeError(w, herr)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleSessionVerify(w http.ResponseWriter, r *http.Request) {
	s.sweepSessions()
	id := r.PathValue("id")
	// The body is optional: verifying against the recorded chain alone
	// needs no input from the client.
	var req sessionVerifyRequest
	if !decode(w, r, &req, true) {
		return
	}
	sess, err := s.sessions.Get(id)
	if err != nil {
		writeError(w, sessionError(id, err))
		return
	}
	threads, herr := s.threads(req.Threads, 0)
	if herr != nil {
		writeError(w, herr)
		return
	}
	// The replay re-runs every link, genesis included: it gets the budget
	// each link had when it first ran by default.
	_, links, _ := sess.Snapshot()
	budget := time.Duration(len(links)) * s.cfg.DefaultTimeout
	what := func() string { return "session " + id + " verify" }
	out, herr := submit(s.exec, r.Context(), time.Now().Add(budget), what, func(tid int, _ time.Time) (*session.VerifyOutcome, *httpError) {
		return s.runSessionVerify(tid, sess, req.FinalChain, threads)
	})
	if herr != nil {
		writeError(w, herr)
		return
	}
	writeJSON(w, http.StatusOK, out)
}
