// Package cautious is a detlint test fixture for the cautiousness
// contract, which the failsafe pass checks. It imports the real runtime
// context type so the pass resolves core.Ctx exactly as it does on
// production code.
package cautious

import (
	"galois/internal/core"
	"galois/internal/marks"
)

type node struct {
	lock marks.Lockable
	val  int
	hits int
}

var generation int

func eagerWrites(ctx *core.Ctx[*node], n *node) {
	n.val = 1      // want failsafe
	generation = 2 // want failsafe
	n.hits++       // want failsafe
	ctx.Acquire(&n.lock)
	v := n.val + 1
	ctx.OnCommit(func(c *core.Ctx[*node]) {
		// Shared writes inside the commit closure are the contract.
		n.val = v
	})
}

func capturedWrite(shared []int) func(*core.Ctx[int], int) {
	return func(ctx *core.Ctx[int], i int) {
		shared[i] = i // want failsafe
		var l marks.Lockable
		ctx.Acquire(&l)
	}
}

func suppressedWrite(ctx *core.Ctx[*node], n *node) {
	//detlint:ignore failsafe scratch field is task-private by construction
	n.hits = 0
	ctx.Acquire(&n.lock)
}

func localWritesAreFine(ctx *core.Ctx[*node], n *node, byValue node) {
	sum := 0
	sum += 3
	byValue.val = 9 // writes a parameter copy, not shared state
	scratch := make([]int, 4)
	scratch[0] = sum
	ctx.Acquire(&n.lock)
	ctx.OnCommit(func(c *core.Ctx[*node]) {
		n.val = sum
	})
}

func writesAfterAcquireAreFlagged(ctx *core.Ctx[*node], n *node) {
	ctx.Acquire(&n.lock)
	// Task bodies re-run under inspect/validate modes, so every direct
	// shared write must sit inside the OnCommit closure, after the first
	// Acquire as much as before it.
	n.val = 7 // want failsafe
}

func helperWithoutAcquireIsSkipped(ctx *core.Ctx[*node], n *node) {
	// Helpers that never establish a neighborhood (only Push, say) are
	// not operators, so they are out of scope.
	n.val = 3
	ctx.Push(n)
}
