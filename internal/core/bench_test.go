package core

import (
	"testing"

	"galois/internal/marks"
	"galois/internal/rng"
)

// BenchmarkInspectExecute times one task through the DIG pipeline — inspect
// (11 priority writes: the task's own node and 10 random neighbours of a
// 150k-node array of 16-byte nodes), selection, and a commit closure that
// writes one word — on a reused engine at GOMAXPROCS workers. It reports
// ns/task, and the operator does next to nothing, so what is measured is
// the scheduler's per-task cost at the neighbourhood size of bfs/mis on the
// galoisbench engine-finegrain input.
func BenchmarkInspectExecute(b *testing.B) {
	type node struct {
		marks.Lockable
		dist uint64
	}
	const nodes, degree = 150_000, 10
	graph := make([]node, nodes)
	nbrs := make([]int32, nodes*degree)
	r := rng.New(11)
	for i := range nbrs {
		nbrs[i] = int32(r.Intn(nodes))
	}
	items := make([]int32, nodes)
	for i := range items {
		items[i] = int32(i)
	}
	eng := NewEngine(0)
	defer eng.Close()
	opt := Defaults()
	opt.Sched = Deterministic
	body := func(ctx *Ctx[int32], v int32) {
		n := &graph[v]
		ctx.Acquire(&n.Lockable)
		for _, u := range nbrs[int(v)*degree : int(v+1)*degree] {
			ctx.Acquire(&graph[u].Lockable)
		}
		ctx.OnCommit(func(*Ctx[int32]) { n.dist++ })
	}
	RunOn(eng, items, body, opt) // warm the engine's arenas
	b.ResetTimer()
	var inspects uint64
	for i := 0; i < b.N; i++ {
		inspects += RunOn(eng, items, body, opt).Inspects
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes), "ns/task")
	b.ReportMetric(float64(inspects)/float64(b.N*nodes), "inspects/task")
}

// BenchmarkFormation times the generation boundary: a g-d loop on a reused
// engine whose tasks each push two children until depth 3, so 8 192 roots
// grow to 16 384, 32 768 and 65 536 tasks — 114 688 children over three
// generation boundaries. Every task owns its own location, so each round
// commits its whole window and what varies with formation is the cost of
// turning the committed tasks' children into the next generation. It
// reports ns/child and allocs/op at GOMAXPROCS workers.
func BenchmarkFormation(b *testing.B) {
	type task struct{ idx, depth int32 }
	const roots, depth = 8192, 3
	cells := make([]marks.Lockable, roots<<depth)
	items := make([]task, roots)
	for i := range items {
		items[i] = task{idx: int32(i), depth: depth}
	}
	eng := NewEngine(0)
	defer eng.Close()
	opt := Defaults()
	opt.Sched = Deterministic
	body := func(ctx *Ctx[task], t task) {
		ctx.Acquire(&cells[t.idx])
		if t.depth > 0 {
			ctx.Push(task{idx: 2 * t.idx, depth: t.depth - 1})
			ctx.Push(task{idx: 2*t.idx + 1, depth: t.depth - 1})
		}
	}
	RunOn(eng, items, body, opt) // warm the engine's arenas
	b.ReportAllocs()
	b.ResetTimer()
	var pushes uint64
	for i := 0; i < b.N; i++ {
		pushes += RunOn(eng, items, body, opt).Pushes
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pushes), "ns/child")
}
