// Package commitpure is a detlint test fixture: a commit handler runs
// after conflict detection holding only its own task's neighborhood, so
// it may write captured state but must not touch package state, acquire,
// or make calls the analyzer cannot see.
package commitpure

import (
	"galois/internal/core"
	"galois/internal/marks"
)

type node struct {
	lock marks.Lockable
	val  int
}

var committed int

func handlerWritesPackageState(ctx *core.Ctx[*node], n *node) {
	ctx.Acquire(&n.lock)
	ctx.OnCommit(func(c *core.Ctx[*node]) {
		committed++ // want commitpure
		n.val = 1   // captured from the task: the contract
	})
}

func handlerAcquires(ctx *core.Ctx[*node], n *node) {
	ctx.Acquire(&n.lock)
	ctx.OnCommit(func(c *core.Ctx[*node]) { // want commitpure
		c.Acquire(&n.lock)
	})
}

// An OnCommit argument that is not a resolvable literal — here a handler
// that arrives as a parameter — blinds both the purity check and the
// operator's own failsafe proof.
func handlerUnresolvable(ctx *core.Ctx[*node], n *node, h func(*core.Ctx[*node])) {
	ctx.Acquire(&n.lock)
	ctx.OnCommit(h) // want commitpure // want failsafe
}

// A handler built once before the loop and finding its task through
// c.Item() resolves like one written in place, so hoisting it does not hide
// a package-state write.
func hoistedHandlerWritesPackageState(nodes []node, items []int) {
	count := func(c *core.Ctx[int]) {
		committed++ // want commitpure
		nodes[c.Item()].val = 1
	}
	core.ForEach(items, func(ctx *core.Ctx[int], i int) {
		ctx.Acquire(&nodes[i].lock)
		ctx.OnCommit(count)
	}, core.Options{})
}

// boundHelperIsResolved is the msf pattern: a helper bound in the operator
// body, executed inside the commit closure. Its captured writes are fine.
func boundHelperIsResolved(ctx *core.Ctx[*node], n *node) {
	bump := func() { n.val++ }
	ctx.Acquire(&n.lock)
	ctx.OnCommit(func(c *core.Ctx[*node]) {
		bump()
		c.Push(n)
	})
}

func handlerDynamicCall(ctx *core.Ctx[*node], n *node, h func()) {
	ctx.Acquire(&n.lock)
	ctx.OnCommit(func(c *core.Ctx[*node]) {
		h() // want commitpure
	})
}
