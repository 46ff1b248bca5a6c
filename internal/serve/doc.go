// Package serve turns the repository's graph-analytics apps into a
// deterministic network job service — the serving-layer proof of the
// paper's portability claim (§3): a job submitted to a loaded multi-tenant
// server returns the same fingerprint as the same job run alone, at any
// thread count, on any machine.
//
// The pieces:
//
//   - Job registry (Registry, Kind): maps a job kind plus JSON parameters
//     (scale, variant, seed, threads) onto the app's catalog entry
//     (internal/catalog), the table the experiment harness reads too.
//     Inputs are derived through internal/inputs and cached per (input
//     family, scale, seed) in a byte-budgeted LRU (input.go), so
//     client-chosen seeds cannot grow the process; only the small and
//     default scales are served.
//   - Engine pool (EnginePool): checks reusable galois.Engine instances in
//     and out, keyed by thread count and lazily grown to one engine per
//     worker, so
//     steady-state request handling rides the engine's allocation-free
//     path instead of rebuilding run state per request.
//   - Admission control (executor.go): one generic submit carries every
//     kind of work — one-shot jobs, session batches, chain verifies —
//     onto a bounded queue with explicit rejection (HTTP 429 +
//     Retry-After) when full, per-task deadlines that bound queue wait and
//     run together, and graceful shutdown that completes every admitted task while new
//     submissions get 503.
//   - Result cache (internal/rescache): deterministic jobs are pure
//     functions of their normalized spec, so results are content-
//     addressed — a byte-budgeted LRU keyed by the canonical spec hash
//     serves repeat submissions at lookup speed, singleflight collapses
//     concurrent identical submissions onto one execution. Cached
//     responses carry the same receipt a fresh run would, plus a cached
//     flag that is excluded from verification, so POST /verify audits
//     them like any other.
//   - Fingerprint receipts (Receipt): every response carries the result
//     fingerprint and the exact normalized job spec; POST /verify
//     re-executes a receipt and reports match/mismatch — determinism as an
//     API feature, not just a test property.
//   - Observability: an obs.Registry per server (admission counters, job
//     latency histogram, per-kind commit/abort totals) exported at
//     GET /metrics as plain text, plus optional per-job Chrome trace
//     capture returned inline.
//
// Determinism note: the server itself is full of wall-clock reads and
// scheduling-dependent concurrency — deadlines, Retry-After, worker
// goroutines racing on a queue. None of it reaches committed job output:
// every deterministic job's result is a pure function of its normalized
// spec, which is exactly what the receipts make checkable. detlint keeps
// the package honest with a rule-scoped exemption (wallclock only); map
// iteration, global randomness and unannotated fork points are still
// flagged here like everywhere else.
package serve
