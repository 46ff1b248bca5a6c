// Package core implements the two Galois schedulers of the paper: the
// non-deterministic speculative scheduler of §2.1 (Figure 1b) and the
// deterministic interference-graph (DIG) scheduler of §3 (Figures 2-3),
// including the §3.3 optimizations. The public API lives in the root
// package galois; core is generic over the task item type.
//
// # Execution protocol
//
// A task body runs under one of three modes (see Ctx):
//
//   - modeDirect (non-deterministic): Acquire locks each location with
//     compare-and-set as the body reads it; a conflict unwinds the body via
//     a panic sentinel, releases the marks, and requeues the task. Because
//     tasks are cautious — no shared writes before the OnCommit closure —
//     unwinding is the entire rollback.
//   - modeInspect (DIG phase 1): Acquire performs writeMarksMax: the
//     highest task id wins each location, displaced owners get their
//     Prevented flag set, and losing tasks self-flag but keep marking (the
//     max over a fixed set is order-independent only if every element
//     participates). The cumulative marks are the round's interference
//     graph; nobody mutates shared program state in this phase.
//   - modeValidate (DIG phase 2, baseline): the body re-executes; Acquire
//     asserts ownership and unwinds on the first mismatch. With the
//     continuation optimization the re-execution is skipped: the Prevented
//     flag alone decides, and the closure saved at inspect time resumes.
//
// # Why the Prevented flag equals mark validation
//
// Task t fails to own location l at the end of inspect iff some other task
// u with id(u) > id(t) marked l this round. Two cases: u marked l after t
// (u observed t's mark and stole it, setting t.Prevented), or before
// (t observed u's mark, lost the WriteMax, and self-set t.Prevented).
// Either way Prevented(t) is set; conversely Prevented(t) is only ever set
// in those two situations. So Prevented(t) <=> t does not own its whole
// neighborhood <=> t is outside the round's unique independent set. The
// spec-conformance property tests (spec_test.go) check this equivalence
// against a direct sequential interpreter of Figure 2, with and without
// the optimization, across thread counts.
//
// # Why the commit phase is race- and determinism-safe
//
// Committed tasks within one round have disjoint neighborhoods (they all
// own their whole neighborhoods), so their write phases touch disjoint
// locations. A validating re-execution (baseline mode) can run while other
// tasks commit, but every location it reads it owns — if control flow ever
// reaches a location it does not own, Acquire unwinds it before the value
// is used — so it observes exactly the frozen inspect-time state.
//
// # Mark lifecycle
//
// A mark word holds (epoch, id) and nobody ever clears one. Every round
// takes a fresh epoch from the process-wide marks.Epochs clock (a
// speculative run takes one for the whole run), each task moves its record
// into it before its first mark write, and WriteMax compares whole words,
// epoch in the high bits. A word left by an earlier round, run, engine or
// scheduler is smaller than every word of this round, so it reads as
// unowned and can never beat a live one: every round starts with all
// locations unowned. The Prevented flag stores the word it applies to, so
// last round's flag is clear this round with no reset for a stealer's write
// to race. Corollary: an operator that panics mid-round leaves nothing to
// undo — the panic is contained at the next barrier and re-raised on the
// caller, and the marks it stranded are stale to whatever runs next. The
// field budgets (2^24-1 tasks per generation, 2^40-1 epochs per process)
// are checked before any mark is written; see DESIGN.md §8.2.
//
// # Determinism inventory
//
// The deterministic schedule is a pure function of the input because every
// input to every scheduling decision is: (i) the generation order — the
// caller's slice order, then committed pushes in (parent id, creation
// index) order — parents by slot, each parent's pushes in push order —
// optionally pre-permuted by the deterministic interleave; (ii) the window sequence — a pure function of per-round
// commit counts (window.go); (iii) mark resolution — max over a round's
// ids per location, order-independent. Thread count, chunking, stealing
// and timing can change which worker executes what and in which order
// within a phase, but phases are barrier-separated and every cross-phase
// value is one of (i)-(iii).
//
// # Structure and state reuse
//
// The DIG pipeline is phase-structured across four files: generation.go
// owns task storage (size-classed recyclable arenas; slot p holds the task
// of id p+1), round.go generation formation and the inspect/selectAndExec
// phase loop over static ranges (roundExecutor), commit.go the end-of-round
// gather/compact/adapt step (commitCollector), and det.go the run's set-up
// and the per-task phases. Both schedulers run on the persistent worker
// pool of internal/para.
//
// All run state lives in an Engine (engine.go): the pool, barriers, the
// collector and — per item type — arenas, contexts, worklists and scratch.
// ForEach builds a transient engine per call; RunOn reuses a caller-held
// one, whose steady state allocates (near) zero per run. Reuse is inert to
// determinism: recycled storage is fully reinitialized before tasks see it,
// so engine-reused runs are fingerprint-identical to fresh ones.
package core
