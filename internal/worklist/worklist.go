// Package worklist provides the task pools used by the non-deterministic
// Galois scheduler: per-thread chunked LIFO stacks with random stealing
// (the Galois "ChunkedLIFO" family) and a simple shared FIFO.
//
// Worklists are generic over the task type and are only required to deliver
// each pushed task exactly once; ordering is best-effort, which is precisely
// the freedom the non-deterministic scheduler exploits.
package worklist

import (
	"sync"

	"galois/internal/rng"
)

// chunkSize is the number of tasks per chunk; chunking amortizes
// synchronization over the shared pool.
const chunkSize = 64

type chunk[T any] struct {
	items [chunkSize]T
	n     int
}

// spares is a thread's list of drained chunks, touched by that thread alone:
// a chunk drained by its pops is kept here and filled again by its pushes,
// so a retained worklist allocates chunks only up to its peak occupancy. A
// pop zeroes the slot it reads, so a spare holds no item. Past maxSpares a
// thread drops what it drains, which bounds what a parked worklist keeps.
type spares[T any] []*chunk[T]

// take returns an empty chunk: a spare if there is one, else a new one.
func (s *spares[T]) take() *chunk[T] {
	if n := len(*s); n > 0 {
		c := (*s)[n-1]
		*s = (*s)[:n-1]
		return c
	}
	return &chunk[T]{}
}

// maxSpares bounds one thread's spares at room for 262 144 tasks, over
// three times what each worker of a 2-worker run fills when the run starts
// from 150 000 tasks.
const maxSpares = 1 << 12

// put keeps the drained chunk c for reuse.
func (s *spares[T]) put(c *chunk[T]) {
	if len(*s) < maxSpares {
		*s = append(*s, c)
	}
}

// balanceSpares deals the spares of n threads (at(i) is thread i's) out
// evenly: a thread that drained more than it filled, stealing from the
// others, hands its surplus to the threads it stole from.
func balanceSpares[T any](n int, at func(int) *spares[T]) {
	all := at(0)
	for i := 1; i < n; i++ {
		*all = append(*all, *at(i)...)
		*at(i) = (*at(i))[:0]
	}
	share := len(*all) / n
	for i := 1; i < n; i++ {
		*at(i) = append(*at(i), (*all)[len(*all)-share:]...)
		*all = (*all)[:len(*all)-share]
	}
}

// ChunkedLIFO is a scalable worklist: each thread owns a current chunk for
// pushes and pops; full/spare chunks circulate through per-thread shelves
// with stealing. LIFO order maximizes locality for data-driven algorithms.
type ChunkedLIFO[T any] struct {
	perThread []localQueue[T]
}

type localQueue[T any] struct {
	mu     sync.Mutex
	chunks []*chunk[T] // shelf of full or partial chunks, top at end
	cur    *chunk[T]   // private push/pop chunk, not visible to thieves
	spare  spares[T]   // private drained chunks
	rnd    *rng.Rand
	_      [56]byte // reduce false sharing between adjacent queues
}

// NewChunkedLIFO returns a worklist for nthreads threads.
func NewChunkedLIFO[T any](nthreads int) *ChunkedLIFO[T] {
	w := &ChunkedLIFO[T]{perThread: make([]localQueue[T], nthreads)}
	for i := range w.perThread {
		w.perThread[i].rnd = rng.New(uint64(i)*0x9e3779b9 + 1)
	}
	return w
}

// Push adds item on thread tid's queue.
func (w *ChunkedLIFO[T]) Push(tid int, item T) {
	q := &w.perThread[tid]
	if q.cur == nil {
		q.cur = q.spare.take()
	}
	if q.cur.n == chunkSize {
		q.mu.Lock()
		q.chunks = append(q.chunks, q.cur)
		q.mu.Unlock()
		q.cur = q.spare.take()
	}
	q.cur.items[q.cur.n] = item
	q.cur.n++
}

// Pop removes a task, preferring thread tid's own queue and stealing
// otherwise. ok is false only if no task was found anywhere, which does not
// by itself imply global emptiness: another thread's private chunk is not
// visible to thieves, so termination is the scheduler's to detect.
func (w *ChunkedLIFO[T]) Pop(tid int) (item T, ok bool) {
	q := &w.perThread[tid]
	if q.cur != nil && q.cur.n > 0 {
		q.cur.n--
		item = q.cur.items[q.cur.n]
		var zero T
		q.cur.items[q.cur.n] = zero
		return item, true
	}
	// Refill from own shelf.
	if c := w.takeChunk(tid); c != nil {
		q.refill(c)
		return w.Pop(tid)
	}
	// Steal: probe other shelves starting from a random victim.
	n := len(w.perThread)
	if n > 1 {
		start := q.rnd.Intn(n)
		for i := 0; i < n; i++ {
			v := (start + i) % n
			if v == tid {
				continue
			}
			if c := w.takeChunk(v); c != nil {
				q.refill(c)
				return w.Pop(tid)
			}
		}
	}
	var zero T
	return zero, false
}

// refill makes c the queue's private chunk; the drained one it replaces
// becomes a spare.
func (q *localQueue[T]) refill(c *chunk[T]) {
	if q.cur != nil {
		q.spare.put(q.cur)
	}
	q.cur = c
}

func (w *ChunkedLIFO[T]) takeChunk(victim int) *chunk[T] {
	q := &w.perThread[victim]
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.chunks) == 0 {
		return nil
	}
	top := len(q.chunks) - 1
	c := q.chunks[top]
	q.chunks[top] = nil // a retained worklist must not pin drained chunks
	q.chunks = q.chunks[:top]
	return c
}

// BalanceSpares deals the threads' drained chunks out evenly, so the next
// pushes of every thread find spares. Only for a worklist no thread is using,
// such as a drained one between runs.
func (w *ChunkedLIFO[T]) BalanceSpares() {
	balanceSpares(len(w.perThread), func(i int) *spares[T] { return &w.perThread[i].spare })
}

// ChunkedFIFO is a scalable approximately-first-in-first-out worklist:
// threads fill private chunks and append them to a shared queue; pops drain
// a private chunk taken from the queue's head. Order is FIFO at chunk
// granularity, which is what level-structured algorithms like BFS need from
// the non-deterministic scheduler to avoid pathological traversal orders.
type ChunkedFIFO[T any] struct {
	mu    sync.Mutex
	queue []*chunk[T]
	head  int
	local []fifoLocal[T]
}

type fifoLocal[T any] struct {
	write *chunk[T] // being filled by this thread
	read  *chunk[T] // being drained by this thread
	pos   int       // next index to read in read-chunk
	spare spares[T] // drained chunks, this thread's alone
	_     [16]byte
}

// NewChunkedFIFO returns a worklist for nthreads threads.
func NewChunkedFIFO[T any](nthreads int) *ChunkedFIFO[T] {
	return &ChunkedFIFO[T]{local: make([]fifoLocal[T], nthreads)}
}

// Push adds item on thread tid's queue.
func (w *ChunkedFIFO[T]) Push(tid int, item T) {
	q := &w.local[tid]
	if q.write == nil {
		q.write = q.spare.take()
	}
	q.write.items[q.write.n] = item
	q.write.n++
	if q.write.n == chunkSize {
		w.mu.Lock()
		w.queue = append(w.queue, q.write)
		w.mu.Unlock()
		q.write = nil
	}
}

// Pop removes a task in approximate FIFO order. ok is false if this thread
// found no task (shared queue empty and private chunks drained).
func (w *ChunkedFIFO[T]) Pop(tid int) (item T, ok bool) {
	q := &w.local[tid]
	if q.read != nil && q.pos < q.read.n {
		item = q.read.items[q.pos]
		var zero T
		q.read.items[q.pos] = zero
		q.pos++
		if q.pos == q.read.n {
			q.read.n = 0
			q.spare.put(q.read)
			q.read = nil
		}
		return item, true
	}
	// Take the oldest shared chunk.
	w.mu.Lock()
	if w.head < len(w.queue) {
		q.read = w.queue[w.head]
		w.queue[w.head] = nil
		w.head++
		if w.head == len(w.queue) {
			w.queue = w.queue[:0]
			w.head = 0
		}
		w.mu.Unlock()
		q.pos = 0
		return w.Pop(tid)
	}
	w.mu.Unlock()
	// Fall back to this thread's partially filled write chunk.
	if q.write != nil && q.write.n > 0 {
		q.read = q.write
		q.pos = 0
		q.write = nil
		return w.Pop(tid)
	}
	// Steal another thread's write chunk? Not needed: residual items are
	// found because termination is detected via the scheduler's pending
	// count, and their owner threads drain them.
	var zero T
	return zero, false
}

// BalanceSpares deals the threads' drained chunks out evenly, so the next
// pushes of every thread find spares. Only for a worklist no thread is using,
// such as a drained one between runs.
func (w *ChunkedFIFO[T]) BalanceSpares() {
	balanceSpares(len(w.local), func(i int) *spares[T] { return &w.local[i].spare })
}
