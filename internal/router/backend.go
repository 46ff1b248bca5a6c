package router

import (
	"strings"
	"sync"
	"sync/atomic"

	"galois/internal/canon"
	"galois/internal/rng"
)

// State is a backend's health state in the router's view.
type State int32

const (
	// Healthy backends receive routed traffic and periodic probes.
	Healthy State = iota
	// Ejected backends receive no routed traffic; after the recovery
	// cooldown the prober moves them to HalfOpen.
	Ejected
	// HalfOpen backends receive probes only; one success restores
	// Healthy, one failure re-ejects with a fresh cooldown.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Ejected:
		return "ejected"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Backend is one galoisd instance in the routed set.
type Backend struct {
	// URL is the backend's base URL (e.g. "http://127.0.0.1:8090").
	URL string

	// id is a stable 64-bit identity derived from the URL, mixed with the
	// spec key for rendezvous scoring (place).
	id uint64

	// inflight counts proxied requests currently outstanding against this
	// backend, which Shutdown waits out.
	inflight atomic.Int64

	// Traffic counters, exported at the router's /metrics.
	requests atomic.Int64 // proxied requests started
	errors   atomic.Int64 // transport errors observed (dial or later)
	retries  atomic.Int64 // dial-error retries charged to this backend

	// Health state below is low-frequency (probe cycles and failure
	// marking) and guarded by mu; the request path only reads state via
	// the atomic snapshot.
	mu        sync.Mutex
	state     atomic.Int32
	fails     int   // consecutive failures while Healthy/HalfOpen
	ejectedAt int64 // nanotime of the last ejection
	ejections atomic.Int64
	probes    atomic.Int64
}

func newBackend(url string) *Backend {
	return &Backend{
		URL: strings.TrimRight(url, "/"),
		id:  rng.Mix64(uint64(canon.NewFNV().Bytes([]byte(url)))),
	}
}

// State returns the backend's current health state.
func (b *Backend) State() State { return State(b.state.Load()) }

// InFlight returns the number of proxied requests currently outstanding.
func (b *Backend) InFlight() int64 { return b.inflight.Load() }

// markFailure records one failed probe or dial error. ejectAfter is the
// consecutive-failure threshold; now is the caller's clock reading (the
// router injects it so this file stays free of wall-clock reads).
func (b *Backend) markFailure(ejectAfter int, now int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch State(b.state.Load()) {
	case HalfOpen:
		// A half-open backend failed its recovery probe: re-eject with a
		// fresh cooldown.
		b.state.Store(int32(Ejected))
		b.ejectedAt = now
		b.ejections.Add(1)
		b.fails = 0
	case Healthy:
		b.fails++
		if b.fails >= ejectAfter {
			b.state.Store(int32(Ejected))
			b.ejectedAt = now
			b.ejections.Add(1)
			b.fails = 0
		}
	}
}

// markSuccess records one successful probe (or any successfully proxied
// request), clearing the failure streak and restoring a half-open backend
// to healthy.
func (b *Backend) markSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	if State(b.state.Load()) == HalfOpen {
		b.state.Store(int32(Healthy))
	}
}

// maybeHalfOpen moves an ejected backend to half-open once its cooldown
// has elapsed, returning true if a recovery probe should be sent.
func (b *Backend) maybeHalfOpen(recoverAfter, now int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if State(b.state.Load()) != Ejected {
		return State(b.state.Load()) == HalfOpen
	}
	if now-b.ejectedAt < recoverAfter {
		return false
	}
	b.state.Store(int32(HalfOpen))
	return true
}
