// Package marks implements the mark words the Galois runtime associates with
// abstract memory locations (paper §2, Figure 3).
//
// Every abstract location that tasks may conflict on embeds a Lockable. A
// task attempt is represented by a Rec carrying the task's scheduling id.
// The non-deterministic scheduler uses compare-and-set acquisition
// (writeMarks in Figure 1b); the deterministic scheduler uses priority
// acquisition where the highest id wins (writeMarksMax in Figure 3).
//
// # Epoch-tagged words
//
// A mark word is one uint64: an epoch in the high EpochBits, the owner's id
// in the low IDBits. Epochs come from a monotone Clock — the DIG scheduler
// takes one per round, the speculative scheduler one per run — and a word
// of an older epoch reads as unowned, so "older epoch or lower id" is one
// unsigned compare and nobody ever un-marks a location: the next epoch
// retires every mark of the last. The paper's mark value 0, "unowned", is
// the zero word. Loops that overlap in time must not share a location (the
// programming model forbids it anyway), so a running task never meets a
// word newer than its own epoch. DESIGN.md §8.2 has the full argument.
package marks

import (
	"fmt"
	"sync/atomic"
)

// The two bit-fields of a mark word. IDBits bounds the tasks of one DIG
// generation (ids are generation positions), EpochBits the rounds plus
// speculative runs of one process. Rec.Reset and Clock.Next check the
// budgets before any mark is written, and panic rather than wrap.
const (
	IDBits    = 24
	EpochBits = 64 - IDBits
	MaxID     = 1<<IDBits - 1    // largest scheduling id
	MaxEpoch  = 1<<EpochBits - 1 // last epoch a Clock hands out
)

// Epoch is a position in a Clock's sequence. The zero Epoch, where a
// zero-value Rec lives, is older than every epoch a Clock hands out.
type Epoch uint64

// Clock is a monotone epoch source. The zero value is ready to use.
type Clock struct{ now atomic.Uint64 }

// Epochs is the process-wide clock every scheduler draws from: Lockables
// move between engines and schedulers, and a single source makes a word
// left by any earlier run stale to every later one.
var Epochs Clock

// ClockAfter returns a clock that has handed out every epoch up to e; tests
// use it to start a private clock near the end of the budget.
func ClockAfter(e Epoch) *Clock {
	c := &Clock{}
	c.now.Store(uint64(e))
	return c
}

// Next returns a fresh epoch, or panics once the EpochBits budget is spent.
func (c *Clock) Next() Epoch {
	e := c.now.Add(1)
	if e > MaxEpoch {
		panic(fmt.Sprintf("marks: epoch budget exhausted (%d-bit field, %d epochs taken) — restart the process", EpochBits, e-1))
	}
	return Epoch(e)
}

// Rec identifies one task attempt: the (epoch, id) word it writes into the
// locations it marks, and the outcome flag of §3.3.
type Rec struct {
	word uint64
	// prevented holds the word of the attempt that was prevented, so a
	// flag raised in an earlier epoch reads as clear with no reset.
	prevented atomic.Uint64
}

// Reset gives the Rec the scheduling id of a new task, keeping its epoch.
// Ids are strictly positive; ownership contests resolve toward the maximum
// id. For the non-deterministic scheduler the id only needs to be unique.
func (r *Rec) Reset(id uint64) {
	if id > MaxID {
		panic(fmt.Sprintf("marks: scheduling id %d exceeds the %d-bit id field (max %d)", id, IDBits, uint64(MaxID)))
	}
	r.word = r.word&^MaxID | id
}

// Enter moves the Rec into epoch e, keeping its id: a plain store the owning
// task makes before its first mark write of a round (or run).
func (r *Rec) Enter(e Epoch) { r.word = uint64(e)<<IDBits | r.word&MaxID }

// ID returns the task's scheduling id.
func (r *Rec) ID() uint64 { return r.word & MaxID }

// Prevent records that this attempt cannot be in the round's independent
// set: another task stole one of its marks, or held one first with a higher
// id (the flag of the continuation optimization, §3.3). A stealer may call
// it concurrently with the owner; both store the same value.
func (r *Rec) Prevent() { r.prevented.Store(r.word) }

// Prevented reports whether Prevent was called for the current (epoch, id).
// A zero Rec, which has neither, is never prevented.
func (r *Rec) Prevented() bool {
	w := r.word
	return w != 0 && r.prevented.Load() == w
}

// Lockable is a mark word for one abstract location. The zero value is an
// unowned mark. Data structures embed Lockable in every element that can be
// part of a task neighborhood (graph nodes, mesh triangles, ...).
type Lockable struct {
	word atomic.Uint64
}

// TryAcquire attempts CAS acquisition for rec, as in Figure 1b's writeMarks.
// ok is false if another task of rec's epoch owns the location; ops is the
// number of atomic operations performed, for the Figure 5 accounting.
func (l *Lockable) TryAcquire(rec *Rec) (ok bool, ops int) {
	w := rec.word
	cur := l.word.Load()
	if cur == w {
		return true, 1
	}
	if cur > w&^MaxID {
		return false, 1
	}
	// Unowned: released (zero) or left by an older epoch.
	return l.word.CompareAndSwap(cur, w), 2
}

// Release clears the mark if rec owns it, as in the unlock path of
// Figure 1b. Returns the number of atomic operations performed.
func (l *Lockable) Release(rec *Rec) (ops int) {
	if l.word.Load() == rec.word {
		l.word.CompareAndSwap(rec.word, 0)
		return 2
	}
	return 1
}

// WriteMax implements writeMarksMax from Figure 3 for a single location:
// install rec unless a task of the same epoch with a higher id holds it.
// Unlike TryAcquire it never gives up early — determinism requires every
// task to contribute its id to the max at every location it touches. It
// returns whether rec holds the location after the call, the id of the
// same-epoch task rec displaced (0 if none; the caller must Prevent it,
// §3.3), and the atomic operations performed.
func (l *Lockable) WriteMax(rec *Rec) (owned bool, stole uint64, ops int) {
	w := rec.word
	for {
		cur := l.word.Load()
		ops++
		if cur >= w {
			// rec itself, or a higher id of this epoch, holds the mark
			// (ids are unique per round, so equal means rec).
			return cur == w, 0, ops
		}
		ops++
		if l.word.CompareAndSwap(cur, w) {
			if cur>>IDBits == w>>IDBits {
				stole = cur & MaxID
			}
			return true, stole, ops
		}
		// Someone else updated the mark; retry. The final outcome
		// (max id) is unaffected by the interleaving.
	}
}

// OwnedBy reports whether rec currently owns the location.
func (l *Lockable) OwnedBy(rec *Rec) bool { return l.word.Load() == rec.word }
