package core

import (
	"fmt"
	"math/bits"

	"galois/internal/marks"
)

// genArena is the backing storage for one generation: the task records and
// the deterministic-order pointer slice. Slot p of tasks always holds the
// task of id p+1, which is how a mark word's id finds its task; order starts
// out pointing at the slots in sequence and is compacted in place as rounds
// retire tasks. Arenas are sized in power-of-two classes so an engine can
// recycle them across generations and runs whose sizes differ (a BFS
// frontier grows and shrinks by orders of magnitude within one run), each
// task keeping its children buffer at its high-water capacity.
type genArena[T any] struct {
	tasks []detTask[T]
	order []*detTask[T]
	// dirty is the scrub high-water mark: no generation formed since the
	// last scrub was larger, so tasks[dirty:] hold nothing of a run.
	dirty int
}

// scrub zeroes what tasks[:dirty] still hold of finished runs — the item,
// the commit closure a failed run can leave, the children buffer over its
// whole capacity — and keeps the buffers.
func (a *genArena[T]) scrub() {
	for i := range a.tasks[:a.dirty] {
		t := &a.tasks[i]
		var zero T
		t.item = zero
		t.commitFn = nil
		clear(t.children[:cap(t.children)])
	}
	a.dirty = 0
}

// arenaClass returns the free-list class for a generation of n tasks: the
// exponent of the smallest power of two >= n (floored so tiny generations
// share one class).
func arenaClass(n int) int {
	if n <= 16 {
		return 4
	}
	return bits.Len(uint(n - 1))
}

// genFreeList is a size-classed free list of generation arenas, one slot per
// power-of-two class. One slot suffices because at most one generation is
// live at a time within a run: the scheduler releases generation g before
// taking storage for generation g+1, so a steady-state run ping-pongs on the
// same arena(s) and allocates nothing.
type genFreeList[T any] struct {
	byClass [65]*genArena[T]
}

// take returns an arena with capacity for n tasks, recycling a free one of
// the right class when available. A generation whose positions do not fit
// the id field of a mark word fails the run here, before it is formed.
func (fl *genFreeList[T]) take(n int) *genArena[T] {
	if n > marks.MaxID {
		panic(fmt.Sprintf("galois: generation of %d tasks exceeds the %d-bit id field of a mark word (max %d)",
			n, marks.IDBits, marks.MaxID))
	}
	c := arenaClass(n)
	a := fl.byClass[c]
	if a != nil {
		fl.byClass[c] = nil
	} else {
		capacity := 1 << c
		a = &genArena[T]{
			tasks: make([]detTask[T], capacity),
			order: make([]*detTask[T], capacity),
		}
	}
	a.dirty = max(a.dirty, n)
	return a
}

// put returns an arena to the free list. The class slot holds one arena;
// a displaced arena is dropped to the garbage collector (this only happens
// when generation sizes oscillate faster than reuse, which recycling by
// class makes rare).
func (fl *genFreeList[T]) put(a *genArena[T]) {
	fl.byClass[arenaClass(len(a.tasks))] = a
}
