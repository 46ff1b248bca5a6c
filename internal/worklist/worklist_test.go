package worklist

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestChunkedLIFOSingleThread(t *testing.T) {
	w := NewChunkedLIFO[int](1)
	const n = 1000
	for i := 0; i < n; i++ {
		w.Push(0, i)
	}
	seen := map[int]bool{}
	for {
		v, ok := w.Pop(0)
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("duplicate pop of %d", v)
		}
		seen[v] = true
	}
	if len(seen) != n {
		t.Fatalf("popped %d items, want %d", len(seen), n)
	}
}

func TestChunkedLIFOLocalOrder(t *testing.T) {
	// Within one thread and one chunk, order is LIFO.
	w := NewChunkedLIFO[int](1)
	for i := 0; i < 10; i++ {
		w.Push(0, i)
	}
	for i := 9; i >= 0; i-- {
		v, ok := w.Pop(0)
		if !ok || v != i {
			t.Fatalf("pop = %d,%v, want %d", v, ok, i)
		}
	}
}

func TestChunkedLIFOStealing(t *testing.T) {
	const threads = 4
	const n = 10000
	w := NewChunkedLIFO[int](threads)
	// All work pushed on thread 0; other threads must steal it.
	for i := 0; i < n; i++ {
		w.Push(0, i)
	}
	var popped atomic.Int64
	var wg sync.WaitGroup
	for tid := 1; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				if _, ok := w.Pop(tid); !ok {
					return
				}
				popped.Add(1)
			}
		}(tid)
	}
	wg.Wait()
	// Thread 0's private chunk (up to chunkSize items) is not stealable;
	// drain it locally.
	for {
		if _, ok := w.Pop(0); !ok {
			break
		}
		popped.Add(1)
	}
	if popped.Load() != n {
		t.Fatalf("popped %d, want %d", popped.Load(), n)
	}
}

func TestChunkedLIFOConcurrentPushPop(t *testing.T) {
	const threads = 8
	const perThread = 5000
	w := NewChunkedLIFO[int](threads)
	var consumed atomic.Int64
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				w.Push(tid, i)
				if i%3 == 0 {
					if _, ok := w.Pop(tid); ok {
						consumed.Add(1)
					}
				}
			}
			for {
				if _, ok := w.Pop(tid); !ok {
					break
				}
				consumed.Add(1)
			}
		}(tid)
	}
	wg.Wait()
	// Every thread drains until personally empty; since all pushes
	// happened before the final drains started on each thread, stragglers
	// can remain only if a thread finished while another still held items
	// in its private chunk. Drain once more from thread 0.
	for {
		if _, ok := w.Pop(0); !ok {
			break
		}
		consumed.Add(1)
	}
	if got := consumed.Load(); got != threads*perThread {
		t.Fatalf("consumed %d, want %d", got, threads*perThread)
	}
}

func TestChunkedFIFOSingleThread(t *testing.T) {
	w := NewChunkedFIFO[int](1)
	const n = 500
	for i := 0; i < n; i++ {
		w.Push(0, i)
	}
	// Approximate FIFO becomes exact with a single producer/consumer.
	for i := 0; i < n; i++ {
		v, ok := w.Pop(0)
		if !ok || v != i {
			t.Fatalf("pop = %d,%v want %d", v, ok, i)
		}
	}
	if _, ok := w.Pop(0); ok {
		t.Fatal("pop from empty succeeded")
	}
}

func TestChunkedFIFOMultiThreadDelivery(t *testing.T) {
	const threads = 4
	const perThread = 4000
	w := NewChunkedFIFO[int](threads)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				w.Push(tid, tid*perThread+i)
			}
		}(tid)
	}
	wg.Wait()
	seen := make([]bool, threads*perThread)
	var mu sync.Mutex
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				v, ok := w.Pop(tid)
				if !ok {
					return
				}
				mu.Lock()
				if seen[v] {
					t.Errorf("duplicate delivery of %d", v)
				}
				seen[v] = true
				mu.Unlock()
			}
		}(tid)
	}
	wg.Wait()
	count := 0
	for _, s := range seen {
		if s {
			count++
		}
	}
	if count != threads*perThread {
		t.Fatalf("delivered %d, want %d", count, threads*perThread)
	}
}

func TestOBIMDeliversAll(t *testing.T) {
	o := NewOBIM[int](4, 8)
	const n = 5000
	for i := 0; i < n; i++ {
		o.PushPrio(i%4, i, i%11-1) // includes out-of-range priorities
	}
	seen := make([]bool, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for tid := 0; tid < 4; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				v, ok := o.Pop(tid)
				if !ok {
					return
				}
				mu.Lock()
				if seen[v] {
					t.Errorf("duplicate %d", v)
				}
				seen[v] = true
				mu.Unlock()
			}
		}(tid)
	}
	wg.Wait()
	// Residual items can sit in other threads' private chunks after a
	// thread exits; drain from every tid.
	for tid := 0; tid < 4; tid++ {
		for {
			v, ok := o.Pop(tid)
			if !ok {
				break
			}
			if seen[v] {
				t.Fatalf("duplicate %d", v)
			}
			seen[v] = true
		}
	}
	count := 0
	for _, s := range seen {
		if s {
			count++
		}
	}
	if count != n {
		t.Fatalf("delivered %d of %d", count, n)
	}
}

func TestOBIMPriorityOrderSingleThread(t *testing.T) {
	o := NewOBIM[int](1, 16)
	// Push in reverse priority order.
	for p := 15; p >= 0; p-- {
		o.PushPrio(0, p, p)
	}
	prev := -1
	for {
		v, ok := o.Pop(0)
		if !ok {
			break
		}
		if v < prev {
			t.Fatalf("priority inversion: %d after %d", v, prev)
		}
		prev = v
	}
}

func TestOBIMHintRecovery(t *testing.T) {
	o := NewOBIM[int](1, 16)
	o.PushPrio(0, 1, 10)
	if v, ok := o.Pop(0); !ok || v != 1 {
		t.Fatal("high-priority item lost")
	}
	// Hint is now raised; a low-priority push must still be found.
	o.PushPrio(0, 2, 1)
	if v, ok := o.Pop(0); !ok || v != 2 {
		t.Fatal("low item after hint raise lost")
	}
	if _, ok := o.Pop(0); ok {
		t.Fatal("phantom item")
	}
}

// TestDrainedChunksAreRecycled: a thread's pushes refill the chunks its pops
// drained, so filling and draining a warm worklist again allocates nothing,
// and a drained chunk holds no item — every pop zeroes its slot — so a
// retained worklist pins nothing that passed through it.
func TestDrainedChunksAreRecycled(t *testing.T) {
	lifo, fifo := NewChunkedLIFO[*int](1), NewChunkedFIFO[*int](1)
	lq, fq := &lifo.perThread[0], &fifo.local[0]
	checkRecycled(t, "lifo", lifo, func() []*chunk[*int] { return append([]*chunk[*int]{lq.cur}, lq.spare...) })
	checkRecycled(t, "fifo", fifo, func() []*chunk[*int] { return append([]*chunk[*int]{fq.read, fq.write}, fq.spare...) })
}

// checkRecycled fills wl with 10 chunks and a bit and drains it, twice
// over, and then inspects the chunks it holds.
func checkRecycled(t *testing.T, name string, wl interface {
	Push(tid int, item *int)
	Pop(tid int) (*int, bool)
}, held func() []*chunk[*int]) {
	x := new(int)
	cycle := func() {
		for i := 0; i < 10*chunkSize+3; i++ {
			wl.Push(0, x)
		}
		for {
			if _, ok := wl.Pop(0); !ok {
				break
			}
		}
	}
	cycle()
	if got := testing.AllocsPerRun(3, cycle); got != 0 {
		t.Errorf("%s: refilling a drained worklist allocates %v objects, want 0", name, got)
	}
	n := 0
	for _, ch := range held() {
		if ch == nil {
			continue
		}
		n++
		for i, it := range ch.items {
			if it != nil {
				t.Fatalf("%s: a drained chunk still holds an item in slot %d", name, i)
			}
		}
	}
	if n < 11 {
		t.Errorf("%s: the worklist keeps %d drained chunks, want the 11 it filled", name, n)
	}
}

// TestBalanceSpares: when one thread fills the chunks and another drains
// them, the drained chunks pile up with the second; BalanceSpares between
// rounds deals them back out, so after a few rounds the first thread's
// pushes find spares and a round allocates nothing.
func TestBalanceSpares(t *testing.T) {
	lifo, fifo := NewChunkedLIFO[int](2), NewChunkedFIFO[int](2)
	for _, c := range []struct {
		name string
		wl   interface {
			Push(tid int, item int)
			Pop(tid int) (int, bool)
			BalanceSpares()
		}
	}{{"lifo", lifo}, {"fifo", fifo}} {
		round := func() {
			for i := 0; i < 8*chunkSize; i++ {
				c.wl.Push(0, i)
			}
			for _, tid := range []int{1, 0} { // thread 0's private chunk is not stealable
				for {
					if _, ok := c.wl.Pop(tid); !ok {
						break
					}
				}
			}
			c.wl.BalanceSpares()
		}
		for i := 0; i < 8; i++ {
			round()
		}
		if got := testing.AllocsPerRun(3, round); got != 0 {
			t.Errorf("%s: a round allocates %v objects after eight, want 0", c.name, got)
		}
	}
}
