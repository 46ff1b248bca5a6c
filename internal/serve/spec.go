package serve

import (
	"encoding/json"
	"fmt"
)

// Spec is the wire form of one job: what to run and under which scheduler
// parameters. The zero values of optional fields are filled in by
// WithDefaults, and the normalized spec — not the raw request — is what a
// Receipt carries, so re-executing a receipt needs no access to server
// defaults.
type Spec struct {
	// Kind names a registered job kind: an app of internal/catalog.
	Kind string `json:"kind"`
	// Variant selects the scheduler: g-n (speculative, non-deterministic),
	// g-d (DIG-scheduled deterministic) or g-dnc (deterministic without
	// the continuation optimization). Default g-d.
	Variant string `json:"variant,omitempty"`
	// Scale names the input size (small | default). Default small. The
	// paper's full scale is cmd/repro's alone: galoisd refuses it.
	Scale string `json:"scale,omitempty"`
	// Seed seeds the deterministic input derivation. Part of the job
	// identity: same (kind, scale, seed) means byte-identical input.
	Seed uint64 `json:"seed"`
	// Threads is the worker count for the run. Deterministic variants
	// produce the same fingerprint for every value — the portability
	// property the service exists to demonstrate.
	Threads int `json:"threads,omitempty"`
	// TimeoutMS bounds queue wait + execution; expired jobs are rejected
	// with 504 before they start. 0 means the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Trace requests a Chrome trace-event capture of the run, returned
	// inline in the response (not part of the receipt).
	Trace bool `json:"trace,omitempty"`
}

// WithDefaults fills the optional fields every normalized spec carries:
// variant g-d, scale small, threads 1. It is the one place those defaults
// are decided — galoisd's normalization and galoisrouter's placement key
// both call it, so a routing key always matches the backend's cache
// key.
func (s Spec) WithDefaults() Spec {
	if s.Variant == "" {
		s.Variant = "g-d"
	}
	if s.Scale == "" {
		s.Scale = "small"
	}
	if s.Threads <= 0 {
		s.Threads = 1
	}
	return s
}

// Deterministic reports whether the spec's variant has a reproducible
// fingerprint.
func (s Spec) Deterministic() bool { return s.Variant != "g-n" }

// String is the spec's canonical one-line form, used in logs and reports.
func (s Spec) String() string {
	return fmt.Sprintf("%s/%s/%s/seed%d/t%d", s.Kind, s.Variant, s.Scale, s.Seed, s.Threads)
}

// Receipt is the verifiable part of a job response: the normalized spec
// plus the result fingerprint. POST /verify re-executes the spec and
// compares fingerprints; for deterministic variants a mismatch means the
// receipt was tampered with or the serving stack broke determinism.
type Receipt struct {
	Spec          Spec   `json:"spec"`
	Fingerprint   string `json:"fingerprint"` // %016x
	Deterministic bool   `json:"deterministic"`
	// Cached reports that this response was served from the result cache
	// rather than a fresh execution. It describes transport, not identity:
	// it is excluded from verification (POST /verify compares fingerprints
	// only) and must never flow into a fingerprint — detlint's taintfp
	// pass treats any read of a Cached field as tainted, so the compiler
	// of receipts cannot launder serving metadata into a proof.
	Cached bool `json:"cached,omitempty"`
}

// JobResult is the full POST /jobs response: the receipt plus run
// measurements and the optional trace capture.
type JobResult struct {
	Receipt Receipt `json:"receipt"`
	// WallNS is the execution time of the run itself; QueueNS is the time
	// the job spent admitted but waiting for a worker.
	WallNS  int64  `json:"wall_ns"`
	QueueNS int64  `json:"queue_ns"`
	Commits uint64 `json:"commits"`
	Aborts  uint64 `json:"aborts"`
	Rounds  uint64 `json:"rounds"`
	// EngineHit reports whether the run reused a pooled engine (the
	// allocation-free steady-state path) rather than constructing one.
	EngineHit bool `json:"engine_hit"`
	// Trace is the Chrome trace-event JSON of the run when Spec.Trace was
	// set (loadable in Perfetto or chrome://tracing).
	Trace json.RawMessage `json:"trace,omitempty"`
}

// Healthz is the GET /healthz response: a cheap load/liveness snapshot —
// counters only, no engine checkout, no lock beyond the pool's — built for
// high-frequency polling by a routing tier. OK is false only while the
// server drains; the load fields let a prober distinguish "alive and idle"
// from "alive and saturated" (queue_depth near queue_cap with in_flight at
// the worker count means new submissions are about to see 429s).
type Healthz struct {
	OK       bool `json:"ok"`
	Draining bool `json:"draining"`
	// QueueDepth is the number of admitted tasks waiting for a worker;
	// QueueCap is the admission queue bound (full queue => 429).
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// InFlight is the number of tasks currently executing on workers.
	InFlight int64 `json:"in_flight"`
	Workers  int   `json:"workers"`
	// SessionsLive counts live (un-evicted) sessions pinned on this
	// backend.
	SessionsLive int `json:"sessions_live"`
	// Pool summarizes engine-pool checkout statistics.
	Pool HealthzPool `json:"pool"`
}

// HealthzPool is the engine-pool slice of a Healthz snapshot.
type HealthzPool struct {
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Transients uint64 `json:"transients"`
}

// VerifyResult is the POST /verify response.
type VerifyResult struct {
	Match         bool   `json:"match"`
	Deterministic bool   `json:"deterministic"`
	Expect        string `json:"expect"`
	Got           string `json:"got"`
	WallNS        int64  `json:"wall_ns"`
}

// errorBody is the JSON error envelope for non-2xx responses.
type errorBody struct {
	Error string `json:"error"`
}

// httpError is an error with an HTTP status and optional Retry-After
// seconds, produced by admission and validation.
type httpError struct {
	status     int
	msg        string
	retryAfter int
}

func (e *httpError) Error() string { return e.msg }

func errf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}
