package pfp

import (
	"galois"
	"galois/internal/stats"
)

// DefaultWaveBudget bounds how many times a task chain may re-push itself
// within one outer round before control returns to the global-relabeling
// loop. It trades relabeling freshness against round overhead; it does not
// affect the computed flow value.
const DefaultWaveBudget = 8

// task is one discharge attempt: node u with a remaining wave budget.
type task struct {
	u      int32
	budget int32
}

// Galois computes the max-flow value under the given scheduler options.
// Outer rounds perform a deterministic global relabeling and then run a
// Galois loop over the active nodes; tasks discharge one node (acquiring
// the node and its residual neighbors), activate neighbors, and re-push
// themselves while their wave budget lasts.
//
// The speculative variant takes no worklist hint (the default chunked
// LIFO): a task that re-pushes itself is popped next, so a node keeps
// discharging while its arcs are in cache, for as long as its wave budget
// lasts.
func Galois(nw *Network, opts ...galois.Option) (int64, stats.Stats) {
	n := nw.N
	s, t := nw.Source, nw.Sink
	nodes := nw.nodes
	var agg stats.Stats

	// Saturate source arcs (sequential, deterministic).
	lo, hi := nw.Arcs(s)
	for a := lo; a < hi; a++ {
		c := nw.cap[a]
		if c <= 0 {
			continue
		}
		nw.cap[a] = 0
		nw.cap[nw.rev[a]] += c
		nodes[nw.head[a]].excess += c
	}

	body := func(ctx *galois.Ctx[task], tk task) {
		u := int(tk.u)
		nu := &nodes[u]
		ctx.Acquire(&nu.Lockable)
		if nu.excess <= 0 || nu.height >= uint32(n) || u == s || u == t {
			return
		}
		ulo, uhi := nw.Arcs(u)
		// Acquire the full residual neighborhood; heights and arc
		// capacities of neighbors are both read and written.
		for a := ulo; a < uhi; a++ {
			ctx.Acquire(&nodes[nw.head[a]].Lockable)
		}
		// Plan the discharge on local state; pushes are recorded in a
		// deterministic order (arc order within waves), which keeps
		// the commit phase — including task creation — deterministic.
		excess := nu.excess
		height := nu.height
		pushedOnArc := make([]int64, uhi-ulo)
		type push struct {
			a int64
			d int64
		}
		var plan []push
		resid := func(a int64) int64 { return nw.cap[a] - pushedOnArc[a-ulo] }
		for excess > 0 && height < uint32(n) {
			pushedAny := false
			for a := ulo; a < uhi && excess > 0; a++ {
				v := nw.head[a]
				if resid(a) <= 0 || height != nodes[v].height+1 {
					continue
				}
				d := excess
				if r := resid(a); r < d {
					d = r
				}
				pushedOnArc[a-ulo] += d
				plan = append(plan, push{a: a, d: d})
				excess -= d
				pushedAny = true
			}
			if excess == 0 {
				break
			}
			if pushedAny {
				continue
			}
			// Relabel.
			minH := uint32(2 * n)
			for a := ulo; a < uhi; a++ {
				if resid(a) > 0 {
					if h := nodes[nw.head[a]].height; h < minH {
						minH = h
					}
				}
			}
			height = minH + 1
			if height > uint32(n) {
				height = uint32(n)
			}
		}
		ctx.OnCommit(func(c *galois.Ctx[task]) {
			for _, p := range plan {
				v := nw.head[p.a]
				nw.cap[p.a] -= p.d
				nw.cap[nw.rev[p.a]] += p.d
				was := nodes[v].excess
				nodes[v].excess = was + p.d
				if was == 0 && int(v) != s && int(v) != t &&
					nodes[v].height < uint32(n) && tk.budget > 1 {
					c.Push(task{u: int32(v), budget: tk.budget - 1})
				}
			}
			nu.excess = excess
			nu.height = height
			c.CountAtomic(3*len(plan) + 2)
			if excess > 0 && height < uint32(n) && tk.budget > 1 {
				c.Push(task{u: tk.u, budget: tk.budget - 1})
			}
		})
	}

	for {
		globalRelabelDet(nw)
		var active []task
		for u := 0; u < n; u++ {
			if u != s && u != t && nodes[u].excess > 0 && nodes[u].height < uint32(n) {
				active = append(active, task{u: int32(u), budget: DefaultWaveBudget})
			}
		}
		if len(active) == 0 {
			break
		}
		st := galois.ForEach(active, body, opts...)
		agg = agg.Add(st)
	}
	return nw.FlowValue(), agg
}

// globalRelabelDet recomputes heights as BFS distance to the sink over the
// reverse residual graph (unreachable nodes park at n). Deterministic and
// sequential; it runs between Galois rounds.
func globalRelabelDet(nw *Network) {
	n := nw.N
	nodes := nw.nodes
	for u := 0; u < n; u++ {
		nodes[u].height = uint32(n)
	}
	nodes[nw.Sink].height = 0
	q := make([]int32, 0, n)
	q = append(q, int32(nw.Sink))
	for head := 0; head < len(q); head++ {
		w := int(q[head])
		hw := nodes[w].height
		lo, hi := nw.Arcs(w)
		for a := lo; a < hi; a++ {
			x := int(nw.head[a])
			if nw.cap[nw.rev[a]] > 0 && nodes[x].height == uint32(n) && x != nw.Source {
				nodes[x].height = hw + 1
				q = append(q, int32(x))
			}
		}
	}
	nodes[nw.Source].height = uint32(n)
}
