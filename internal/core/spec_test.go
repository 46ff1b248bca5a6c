package core

import (
	"sort"
	"testing"
	"testing/quick"

	"galois/internal/rng"
)

// specTask is one task of a generated program: it reads and writes locs
// (its whole neighborhood), folds tag into each of them when it commits,
// and, while depth > 0, creates children that are a pure function of the
// task.
type specTask struct {
	tag   uint64
	locs  []int
	depth int
}

// specProgram is a randomly generated task set over nlocs locations; a
// fixed task set is the depth == 0 case.
type specProgram struct {
	nlocs int
	roots []specTask
}

func genProgram(seed uint64, depth int) specProgram {
	r := rng.New(seed)
	p := specProgram{nlocs: 4 + r.Intn(40)}
	p.roots = make([]specTask, 1+r.Intn(400))
	for i := range p.roots {
		n := 1 + r.Intn(4)
		seen := map[int]bool{}
		var locs []int
		for len(locs) < n {
			l := r.Intn(p.nlocs)
			if !seen[l] {
				seen[l] = true
				locs = append(locs, l)
			}
		}
		p.roots[i] = specTask{tag: uint64(i) + 1, locs: locs, depth: depth}
	}
	return p
}

// childrenOf derives a task's children from the task alone: zero to two of
// them, one to three locations each.
func childrenOf(nlocs int, t specTask) []specTask {
	if t.depth == 0 {
		return nil
	}
	var out []specTask
	for k := 0; k < int(t.tag%3); k++ {
		tag := t.tag*1000003 + uint64(k) + 1
		var locs []int
		for j := 0; j < 1+int(tag%3); j++ {
			l := int((tag >> (8 * j)) % uint64(nlocs))
			dup := false
			for _, e := range locs {
				dup = dup || e == l
			}
			if !dup {
				locs = append(locs, l)
			}
		}
		out = append(out, specTask{tag: tag, locs: locs, depth: t.depth - 1})
	}
	return out
}

// interpret executes the DIG specification of Figure 2 directly and
// sequentially, sharing nothing with the engine but the window policy:
// each generation is dealt into windows (the §3.3 locality interleave, when
// enabled), labelled with deterministic ids by position, and run in
// windowed rounds — owner = maximum id per location, commit iff the task
// owns its entire neighborhood, failed tasks precede the untried remainder.
// The children of committed tasks, sorted by (parent id, creation index),
// form the next generation: the engine reaches that order without a
// comparison, so this sort is what checks it. It returns the per-location
// fold values and the number of rounds.
func interpret(p specProgram, opt Options) ([]uint64, int) {
	type sched struct {
		id uint64 // scheduling priority: slot position in the generation
		t  specTask
	}
	type born struct {
		parent, k uint64
		t         specTask
	}
	values := make([]uint64, p.nlocs)
	rounds := 0
	gen := p.roots
	for len(gen) > 0 {
		win := newWindowPolicy(len(gen), opt)
		if n, w0 := len(gen), win.size; opt.LocalityInterleave && n > 2 && w0 < n {
			// Deal round-robin into ceil(n/w0) buckets and concatenate.
			buckets := (n + w0 - 1) / w0
			dealt := make([]specTask, 0, n)
			for b := 0; b < buckets; b++ {
				for src := b; src < n; src += buckets {
					dealt = append(dealt, gen[src])
				}
			}
			gen = dealt
		}
		next := make([]*sched, len(gen))
		for i := range gen {
			next[i] = &sched{id: uint64(i) + 1, t: gen[i]}
		}
		var produced []born
		for len(next) > 0 {
			rounds++
			w := win.next(len(next))
			cur, rest := next[:w], next[w:]
			// Interference resolution: max id per location.
			owner := make([]uint64, p.nlocs)
			for _, s := range cur {
				for _, l := range s.t.locs {
					if s.id > owner[l] {
						owner[l] = s.id
					}
				}
			}
			var failed []*sched
			committed := 0
			for _, s := range cur {
				ownsAll := true
				for _, l := range s.t.locs {
					ownsAll = ownsAll && owner[l] == s.id
				}
				if !ownsAll {
					failed = append(failed, s)
					continue
				}
				committed++
				for _, l := range s.t.locs {
					values[l] = values[l]*31 + s.t.tag
				}
				for k, c := range childrenOf(p.nlocs, s.t) {
					produced = append(produced, born{parent: s.id, k: uint64(k) + 1, t: c})
				}
			}
			win.update(w, committed)
			next = append(failed, rest...)
		}
		sort.Slice(produced, func(i, j int) bool {
			a, b := produced[i], produced[j]
			if a.parent != b.parent {
				return a.parent < b.parent
			}
			return a.k < b.k
		})
		gen = make([]specTask, len(produced))
		for i, b := range produced {
			gen[i] = b.t
		}
	}
	return values, rounds
}

// runScheduler executes the same program on the real DIG scheduler. A
// task's first child is created before the failsafe point and the rest from
// the commit closure, so creation indices continue across the two.
func runScheduler(p specProgram, opt Options) ([]uint64, int) {
	cells := make([]cell, p.nlocs)
	st := ForEach(p.roots, func(ctx *Ctx[specTask], tk specTask) {
		for _, l := range tk.locs {
			ctx.Acquire(&cells[l].Lockable)
		}
		kids := childrenOf(p.nlocs, tk)
		if len(kids) > 0 {
			ctx.Push(kids[0])
			kids = kids[1:]
		}
		ctx.OnCommit(func(ctx *Ctx[specTask]) {
			for _, l := range tk.locs {
				cells[l].value = cells[l].value*31 + tk.tag
			}
			for _, c := range kids {
				ctx.Push(c)
			}
		})
	}, opt)
	values := make([]uint64, p.nlocs)
	for i := range cells {
		values[i] = cells[i].value
	}
	return values, int(st.Rounds)
}

// checkAgainstSpec checks, over random programs of the given depth, that
// the parallel DIG implementation executes exactly the schedule the paper's
// pseudocode defines — same commits per round, hence the same per-location
// commit orders and the same round count — for both the continuation and
// baseline schedulers at several thread counts. At one thread every round
// takes the serial pipeline; WindowInit 4096 opens every generation with
// one window over all of it, which at more threads is a parallel round
// whose many failures come back through the per-worker lanes.
func checkAgainstSpec(t *testing.T, depth, count int, configure func(*Options)) {
	t.Helper()
	property := func(seed uint64) bool {
		p := genProgram(seed, depth)
		opt := optsFor(Deterministic, 1, configure)
		specVals, specRounds := interpret(p, opt)
		for _, threads := range []int{1, 2, 3, 8} {
			for _, cont := range []bool{true, false} {
				opt.Threads = threads
				opt.Continuation = cont
				got, rounds := runScheduler(p, opt)
				if rounds != specRounds {
					t.Logf("seed %d threads %d cont %v: rounds %d != spec %d",
						seed, threads, cont, rounds, specRounds)
					return false
				}
				for l := range got {
					if got[l] != specVals[l] {
						t.Logf("seed %d threads %d cont %v: loc %d: %x != spec %x",
							seed, threads, cont, l, got[l], specVals[l])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: count}); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerMatchesSpecification(t *testing.T) {
	checkAgainstSpec(t, 0, 60, func(o *Options) { o.LocalityInterleave = false })
}

// TestSchedulerMatchesSpecificationWithInterleave repeats the comparison
// with the locality interleave enabled on both sides.
func TestSchedulerMatchesSpecificationWithInterleave(t *testing.T) {
	checkAgainstSpec(t, 0, 40, func(*Options) {})
}

// TestSchedulerMatchesSpecificationWithChildren extends the conformance
// check to dynamic task creation, two levels deep: child generations
// interleaved or not, and from the default window or one that starts wider
// than the generation. The interpreter sorts each generation's children on
// (parent id, creation index); the engine concatenates them by parent slot,
// so a formation that walked the slots in another order, or took the
// children in commit order, fails here.
func TestSchedulerMatchesSpecificationWithChildren(t *testing.T) {
	for _, c := range []struct {
		name      string
		configure func(*Options)
	}{
		{"push", func(o *Options) { o.LocalityInterleave = false }},
		{"push/interleave", func(*Options) {}},
		{"push/window4096", func(o *Options) { o.WindowInit = 4096 }},
	} {
		t.Run(c.name, func(t *testing.T) { checkAgainstSpec(t, 2, 20, c.configure) })
	}
}
