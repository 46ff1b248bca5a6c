// Package obs is the observability layer for the schedulers: a trace sink
// fed at round and generation boundaries, and a metrics registry of
// counters and fixed-bucket histograms.
//
// The load-bearing invariant is that observation never perturbs the
// schedule. Determinism is what makes deep tracing trustworthy — a
// deterministic run can be traced, diffed and replayed bit for bit — and
// the package preserves it by construction:
//
//   - Events carry a wall-clock timestamp for rendering only. Timestamps
//     are stamped inside the sink, never read by the scheduler, and are
//     excluded from the canonical event encoding that tests compare.
//   - Under the DIG scheduler every structural event (round start/end,
//     window decision, generation order, suspend/resume aggregates) is
//     emitted from a serial section inside a barrier callback, so the
//     event sequence is a pure function of the schedule — identical for
//     every thread count, which TestTraceEventSequenceThreadInvariant
//     checks as a golden property.
//   - Sink buffers are per-thread and lock-free: each worker appends only
//     to its own padded buffer, so emission adds no synchronization edges
//     that could reorder the computation it observes.
//
// detlint classifies this package as determinism-critical with a
// rule-scoped wallclock exemption (detlint.conf): reading the clock to
// timestamp an event is fine, but trace *content* built from map
// iteration or global RNG would make the trace itself non-reproducible
// and is still flagged.
package obs
