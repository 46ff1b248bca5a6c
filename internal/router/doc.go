// Package router is the cluster tier of the serving stack: an HTTP
// reverse proxy that spreads one-shot jobs, receipt verifications and
// session traffic across a configured set of galoisd backends.
//
// Its load-bearing property is inherited from the paper, not invented
// here: a deterministic job's output is a pure function of its canonical
// spec, independent of machine and thread count. That portability makes
// routing *behavior-free by construction* — whichever backend a job lands
// on, at whatever moment of cluster churn, the receipt is byte-identical.
// Scaling out cannot change results, and any node can verify any node's
// receipt. The router leans on both halves:
//
//   - Placement has one rule and no setting: rendezvous hashing of the
//     rescache canonical spec key over the healthy backends (place). A
//     repeat spec lands where its result is cached, and losing a backend
//     moves only its keys. Requests without a key (g-n specs, session
//     creation) go round-robin. The determinism-under-cluster test pins
//     that placement never reaches a result: the same job mix routed over
//     1, 2 and 4 backends yields identical det receipts per spec.
//   - POST /verify carries no key and walks the healthy set round-robin:
//     every audit is a chance to replay a receipt on a node that did not
//     produce it, which is the paper's portability property exercised
//     continuously in production.
//
// Health is probed per backend against galoisd's GET /healthz (cheap by
// construction: counters, no engine checkout). Consecutive failures —
// probe failures or dial errors observed on live traffic — eject a
// backend; after a cooldown it re-enters half-open and one probe success
// restores it. Request retries are bounded and restricted to dial-phase
// connection errors, where the request provably never reached admission:
// once a backend may have admitted work, retrying elsewhere could execute
// an Exclusive input or session batch twice, so any later failure
// surfaces to the client instead. 429 responses pass through with their
// Retry-After — admission backpressure is propagated, not absorbed.
//
// Sessions are sticky by construction: the backend that creates a session
// owns its pinned state and hash chain, so the router records id →
// backend at creation and routes every /sessions/{id}/* request there,
// bypassing health gating (a pinned request either reaches its owner or
// fails; it is never re-created elsewhere — a lost backend surfaces as
// 502, an evicted chain as the backend's own 410).
package router
