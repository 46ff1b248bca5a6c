package worklist

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkPushPop times a push and a pop on a thread's private ChunkedLIFO
// queue, at 1 and 2 workers on one worklist: each worker pushes 1 024 items
// and pops them again, over and over, as galoisbench's worklist.pushpop_ns
// does. ns/op is per push+pop of one worker; with private queues the
// workers share nothing, so a cost that rises from 1 to 2 workers is a
// shared write on the per-item path.
func BenchmarkPushPop(b *testing.B) {
	const slots = 1024
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			wl := NewChunkedLIFO[int](workers)
			rounds := (b.N + slots - 1) / slots
			var wg sync.WaitGroup
			for tid := 0; tid < workers; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						for i := 0; i < slots; i++ {
							wl.Push(tid, i)
						}
						for i := 0; i < slots; i++ {
							wl.Pop(tid)
						}
					}
				}(tid)
			}
			wg.Wait()
		})
	}
}
