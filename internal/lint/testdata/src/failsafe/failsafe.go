// Package failsafe is a detlint test fixture for the interprocedural
// failsafe pass: shared writes hidden behind helper calls, effect
// declarations on dynamic calls, and the declaration-vs-inference check.
package failsafe

import (
	"galois/internal/core"
	"galois/internal/marks"
)

type node struct {
	lock marks.Lockable
	val  int
}

var generation int

// bumpNode writes through its parameter; deepBump hides the write one
// call deeper, so only an interprocedural summary can see it.
func bumpNode(n *node) { n.val++ }
func deepBump(n *node) { bumpNode(n) }

func bumpGlobal()     { generation++ }
func deepBumpGlobal() { bumpGlobal() }

func writesTwoCallsDeep(ctx *core.Ctx[*node], n *node) {
	deepBump(n) // want failsafe
	ctx.Acquire(&n.lock)
	ctx.OnCommit(func(c *core.Ctx[*node]) {
		deepBump(n) // the handler writes captured state: the contract
	})
}

func globalTwoCallsDeep(ctx *core.Ctx[*node], n *node) {
	deepBumpGlobal() // want failsafe
	ctx.Acquire(&n.lock)
}

// visit threads the acquirer closure one call down — the dmr pattern,
// where the operator's ctx.Acquire runs inside mesh helpers. The acquire
// still counts as the operator's own, and nothing here is a finding.
func visit(n *node, acq func(*node)) { acq(n) }

func acquiresThroughClosure(ctx *core.Ctx[*node], n *node) {
	visit(n, func(e *node) { ctx.Acquire(&e.lock) })
	ctx.OnCommit(func(c *core.Ctx[*node]) { n.val = 1 })
}

var hooks []func()

// runHooks makes a dynamic call the analyzer cannot resolve; the
// declaration vouches for it, so callers are not flagged.
//
//detlint:effects acquires=none,writes=none hooks only log to task-local buffers
func runHooks() {
	for _, h := range hooks {
		h()
	}
}

func trustsDeclaration(ctx *core.Ctx[*node], n *node) {
	runHooks()
	ctx.Acquire(&n.lock)
}

func dynamicUnproven(ctx *core.Ctx[*node], n *node) {
	for _, h := range hooks {
		h() // want failsafe
	}
	ctx.Acquire(&n.lock)
}

// misdeclared understates its effects: the declaration silences callers,
// so the declaration itself must be the finding.
//
//detlint:effects acquires=none,writes=none the claim is wrong on purpose
func misdeclared() { // want failsafe
	generation++
}

// A declaration may widen the inferred summary; callers then carry the
// declared shared write.
//
//detlint:effects acquires=none,writes=shared stored hooks mutate the registry
func writesByContract() {
	for _, h := range hooks {
		h()
	}
}

func callsDeclaredWriter(ctx *core.Ctx[*node], n *node) {
	writesByContract() // want failsafe
	ctx.Acquire(&n.lock)
}

func recWrite(n *node, depth int) {
	if depth == 0 {
		return
	}
	n.val = depth
	recWrite(n, depth-1)
}

func recursionStillCaught(ctx *core.Ctx[*node], n *node) {
	recWrite(n, 3) // want failsafe
	ctx.Acquire(&n.lock)
}

func suppressedHelperWrite(ctx *core.Ctx[*node], n *node) {
	//detlint:ignore failsafe scratch counter is task-private by construction
	deepBump(n)
	ctx.Acquire(&n.lock)
}

// The bfs/mis pattern: one commit handler built before the loop, writing the
// node its task acquired through c.Item(). The operator's failsafe proof
// resolves the binding against the whole declaration, as the purity check
// does, so neither pass finds anything.
func hoistedHandler(nodes []node, items []int) {
	mark := func(c *core.Ctx[int]) { nodes[c.Item()].val = 1 }
	core.ForEach(items, func(ctx *core.Ctx[int], i int) {
		ctx.Acquire(&nodes[i].lock)
		ctx.OnCommit(mark)
	}, core.Options{})
}

func freshWritesAreFine(ctx *core.Ctx[*node], n *node) {
	plan := make([]int, 0, 4)
	for i := 0; i < 3; i++ {
		plan = append(plan, i)
	}
	scratch := &node{}
	scratch.val = len(plan)
	ctx.Acquire(&n.lock)
	ctx.OnCommit(func(c *core.Ctx[*node]) { n.val = scratch.val })
}

// Item is the task's item: with a pointer item type, a write through it
// before the failsafe point lands in shared state, as one through the item
// parameter does. In the handler it is the commit.
func writesThroughItem(ctx *core.Ctx[*node], n *node) {
	ctx.Item().val = 7 // want failsafe
	ctx.Acquire(&n.lock)
	ctx.OnCommit(func(c *core.Ctx[*node]) { c.Item().val = 8 })
}

type plan struct {
	target  *node
	members []*node
}

// The dt/dmr pattern: the body builds into its task's plan and one handler
// built before the loop applies the plan of the task it commits. A plan is
// zeroed for each task, so what the body writes into it is the task's own;
// the handler's write through what the plan points at is the commit.
func plannedCommit(nodes []node, items []int) {
	apply := func(c *core.Ctx[int]) { core.PlanOf[plan](c).target.val = 1 }
	core.ForEach(items, func(ctx *core.Ctx[int], i int) {
		p := core.PlanOf[plan](ctx)
		p.target = &nodes[i]
		p.members = append(p.members, &nodes[i])
		ctx.Acquire(&nodes[i].lock)
		ctx.OnCommit(apply)
	}, core.Options{})
}
