package lint

// failsafePass checks the paper's cautiousness contract (§2.1): every
// operator performs all shared reads (via Ctx.Acquire) before its failsafe
// point and defers all shared writes into Ctx.OnCommit, so unwinding an
// aborted attempt needs no rollback. It proves this rather than
// approximating it: the effect analyzer (internal/lint/effects) summarizes per-function shared
// writes by provenance and composes them across static calls — including
// closures threaded through function-typed parameters — so a write hidden
// two helpers deep behind the operator body is flagged at the call that
// reaches it. It also verifies every //detlint:effects declaration against
// the inferred summary, so the escape hatch for dynamic calls cannot
// silently understate a function's behavior.
//
// It keys off the *core.Ctx parameter and therefore runs everywhere, not
// only on the critical set.
func failsafePass() *Pass {
	p := &Pass{
		Name:       "failsafe",
		Doc:        "interprocedural shared write before the task's failsafe point",
		Everywhere: true,
	}
	p.Run = func(u *Unit) {
		for _, op := range u.world.Operators(u.epkg) {
			for _, v := range op.CheckFailsafe() {
				u.Reportf(v.Pos, "%s", v.Msg)
			}
		}
		for _, v := range u.world.CheckDeclared(u.epkg) {
			u.Reportf(v.Pos, "%s", v.Msg)
		}
	}
	return p
}
