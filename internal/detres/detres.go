// Package detres implements PBBS-style deterministic reservations — the
// "speculative_for" idiom the handwritten deterministic PBBS programs use
// (paper §4.1): items are processed in rounds over a prefix of a fixed
// priority order; each item reserves the shared locations it needs with a
// priority write (minimum index wins), and items whose reservations all
// held commit. The committed set, and hence the output, is a pure function
// of the input order — independent of thread count.
//
// Reservations reuse the mark words of package marks: a minimum-index
// reservation is a maximum-id mark under the order-reversing encoding
// id = MaxID - index, and every round takes a fresh epoch, so the same
// WriteMax protocol — no un-marking between rounds — serves both the DIG
// scheduler and this substrate.
package detres

import (
	"fmt"

	"galois/internal/cachesim"
	"galois/internal/marks"
	"galois/internal/para"
	"galois/internal/stats"
)

// Step defines one speculative item. Reserve runs first (possibly
// repeatedly, in different rounds); it must only read shared state and
// reserve — via the provided Reserver — every location it read or intends
// to write. Commit runs if every reservation held; it applies the item's
// writes and must succeed.
//
// Reserve may return false to abandon the item (already done / nothing to
// do); abandoned items count as committed without calling Commit.
type Step interface {
	Reserve(i int, r *Reserver) bool
	Commit(i int)
}

// Reserver reserves locations on behalf of item i.
type Reserver struct {
	rec      *marks.Rec
	acquired []*marks.Lockable
	ops      int
	lost     bool
	pro      *cachesim.Tracer
	tid      int
}

// Reserve claims l with the current item's priority (minimum item index
// wins). Like writeMarksMax, it never fails early: every location is
// stamped so the final owner is deterministic.
func (r *Reserver) Reserve(l *marks.Lockable) {
	if r.pro != nil {
		r.pro.Touch(r.tid, l)
	}
	owned, _, ops := l.WriteMax(r.rec)
	r.ops += ops
	if owned {
		r.acquired = append(r.acquired, l)
	} else {
		r.lost = true
	}
}

// Options configures For.
type Options struct {
	// Threads is the worker count (<=0 means GOMAXPROCS).
	Threads int
	// Granularity is the round size — the fixed, tunable round
	// parameter of the PBBS codes the paper contrasts with its adaptive
	// window (<=0 means 4096).
	Granularity int
	// Ramp grows the round size with the number of items committed so
	// far: size = max(Granularity, committed/8). Incremental algorithms
	// (Delaunay insertion) need it because early items all conflict;
	// the committed count is thread-independent, so determinism is
	// preserved.
	Ramp bool
	// Profile, if non-nil, records reserved locations for the §5.4
	// locality analysis.
	Profile *cachesim.Tracer
}

// For runs items [0, n) through step under deterministic reservations and
// returns run statistics.
func For(n int, step Step, opt Options) stats.Stats {
	threads := opt.Threads
	if threads <= 0 {
		threads = para.DefaultThreads()
	}
	if n > marks.MaxID {
		panic(fmt.Sprintf("detres: %d items exceed the %d-bit id field of a mark word (max %d)",
			n, marks.IDBits, marks.MaxID))
	}
	gran := opt.Granularity
	if gran <= 0 {
		if opt.Ramp {
			// Ramped loops start tiny (everything conflicts until
			// the structure grows) and scale with commits.
			gran = 16
		} else {
			gran = 4096
		}
	}
	col := stats.NewCollector(threads)
	col.Start()

	type slot struct {
		idx int
		res Reserver
		rec marks.Rec
		// done: abandoned at reserve time (counts as committed).
		done bool
		// failed: lost a reservation this round.
		failed bool
	}
	pending := make([]*slot, n)
	for i := range pending {
		pending[i] = &slot{idx: i}
	}

	committedTotal := 0
	for len(pending) > 0 {
		p := gran
		if opt.Ramp && committedTotal/8 > p {
			p = committedTotal / 8
		}
		if p > len(pending) {
			p = len(pending)
		}
		cur, rest := pending[:p:p], pending[p:]
		// A fresh epoch retires every reservation of the previous round.
		epoch := marks.Epochs.Next()

		// Reserve phase.
		para.For(threads, p, func(tid, k int) {
			s := cur[k]
			// Priority: smaller item index = higher priority, via
			// the order-reversing encoding (0 is reserved for
			// "free", and MaxID-idx is never 0 for idx < n <= MaxID).
			s.rec.Reset(marks.MaxID - uint64(s.idx))
			s.rec.Enter(epoch)
			s.res = Reserver{rec: &s.rec, pro: opt.Profile, tid: tid}
			if opt.Profile != nil {
				opt.Profile.Begin(tid)
				defer opt.Profile.End(tid, k) // the item's reservations are its span
			}
			s.done = !step.Reserve(s.idx, &s.res)
			col.AtomicOp(tid, s.res.ops)
			col.Inspect(tid)
		})

		// Commit phase.
		para.For(threads, p, func(tid, k int) {
			s := cur[k]
			if s.done {
				s.failed = false
			} else {
				held := !s.res.lost
				if held {
					for _, l := range s.res.acquired {
						if !l.OwnedBy(&s.rec) {
							held = false
							break
						}
					}
				}
				if held {
					step.Commit(s.idx)
					if opt.Profile != nil { // all held: its span is what it reserved (§5.4)
						opt.Profile.Replay(tid, k)
					}
					s.failed = false
				} else {
					s.failed = true
				}
			}
			s.res.acquired = nil
		})

		// Failed items keep their priority: they precede the untried
		// suffix in the next round.
		var next []*slot
		committed := 0
		for _, s := range cur {
			if s.failed {
				next = append(next, s)
			} else {
				committed++
			}
		}
		col.Round(stats.Round{Window: p, Committed: committed, Failed: len(next)})
		committedTotal += committed
		if committed == 0 {
			// The minimum-index item always holds all its
			// reservations.
			panic("detres: round committed nothing")
		}
		pending = append(next, rest...)
	}
	col.Stop()
	return col.Snapshot()
}
