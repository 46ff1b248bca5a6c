package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"galois/internal/rng"
)

// treeTask is node k (heap numbering, fan-out termFanout) of root r's task
// tree; its slot in the per-run counters is r*termTreeSize + k.
type treeTask struct {
	root, node, depth int
}

const (
	termRoots    = 48
	termFanout   = 4
	termDepth    = 4
	termTreeSize = (1<<(2*(termDepth+1)) - 1) / 3 // nodes of a full 4-ary tree of depth termDepth
)

// termChildren is the seeded rule: how many children a task pushes. Zero,
// one and several (2 to 4) are all common, so commits move pending by -1, 0
// and n-1; leaves at termDepth push none.
func termChildren(seed uint64, tk treeTask) int {
	if tk.depth == termDepth {
		return 0
	}
	switch r := rng.Mix64(seed ^ uint64(tk.root*termTreeSize+tk.node)); r % 3 {
	case 0:
		return 0
	case 1:
		return 1
	default:
		return 2 + int(r>>8%3)
	}
}

// termExpected counts the tasks the rule creates under seed, serially.
func termExpected(seed uint64) int {
	var walk func(tk treeTask) int
	walk = func(tk treeTask) int {
		n := 1
		for j := 0; j < termChildren(seed, tk); j++ {
			n += walk(treeTask{tk.root, termFanout*tk.node + j + 1, tk.depth + 1})
		}
		return n
	}
	total := 0
	for r := 0; r < termRoots; r++ {
		total += walk(treeTask{root: r})
	}
	return total
}

// TestNonDetTerminationIsExact: the speculative loop ends exactly when the
// last task commits, though childless commits reach the shared pending
// count only when their worker next finds no work. Tasks push 0, 1 or
// several children by a seeded rule and contend for a few cells, at 1, 2
// and 4 workers over a few hundred runs of one engine: every task commits
// exactly once (an early exit leaves some uncommitted) and every run returns
// within a deadline (a count never flushed would keep the workers waiting).
func TestNonDetTerminationIsExact(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // four real workers
	runs := 300
	if testing.Short() {
		runs = 30
	}
	cells := make([]cell, 8)
	roots := make([]treeTask, termRoots)
	for r := range roots {
		roots[r] = treeTask{root: r}
	}
	for _, threads := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("t%d", threads), func(t *testing.T) {
			eng := NewEngine(threads)
			opt := optsFor(NonDeterministic, threads)
			commits := make([]atomic.Int32, termRoots*termTreeSize)
			for run := 0; run < runs; run++ {
				seed := uint64(threads)<<32 | uint64(run)
				for i := range commits {
					commits[i].Store(0)
				}
				body := func(ctx *Ctx[treeTask], tk treeTask) {
					ctx.Acquire(&cells[(tk.root+tk.node)%len(cells)].Lockable)
					ctx.OnCommit(func(ctx *Ctx[treeTask]) {
						commits[tk.root*termTreeSize+tk.node].Add(1)
						for j := 0; j < termChildren(seed, tk); j++ {
							ctx.Push(treeTask{tk.root, termFanout*tk.node + j + 1, tk.depth + 1})
						}
					})
				}
				finished := make(chan uint64, 1)
				go func() { finished <- RunOn(eng, roots, body, opt).Commits }()
				var got uint64
				select {
				case got = <-finished:
				case <-time.After(20 * time.Second):
					// The engine is left running: closing it would wait for
					// the stuck workers.
					t.Fatalf("run %d (seed %#x) did not return within 20 s", run, seed)
				}
				want := termExpected(seed)
				if got != uint64(want) {
					t.Fatalf("run %d (seed %#x): %d commits, want %d", run, seed, got, want)
				}
				ran := 0
				for i := range commits {
					switch c := commits[i].Load(); c {
					case 0:
					case 1:
						ran++
					default:
						t.Fatalf("run %d (seed %#x): task %d committed %d times", run, seed, i, c)
					}
				}
				if ran != want {
					t.Fatalf("run %d (seed %#x): %d tasks committed, want %d", run, seed, ran, want)
				}
			}
			eng.Close()
		})
	}
}
