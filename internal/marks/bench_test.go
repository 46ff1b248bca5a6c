package marks

import (
	"sync"
	"sync/atomic"
	"testing"

	"galois/internal/rng"
)

// The benchmarks use only Reset/WriteMax/TryAcquire/Release on zero-value
// Recs, the subset galoisbench's frozen probes use, so the same file
// measures any earlier mark representation. Successive tasks take
// successive Recs of a small ring, never the same Rec twice in a row: a
// representation that identifies the owner by Rec address must not see its
// own mark and skip the write.

const (
	benchSlots = 1024 // 8 KiB of mark words: cache resident
	recRing    = 64
)

// BenchmarkWriteMax times the DIG scheduler's priority write, per call, on
// the winning path (ids ascend sweep over sweep, so every call installs its
// word and nothing is ever cleared):
//
//	private     one goroutine per cache-resident slot set;
//	contended   GOMAXPROCS goroutines sweeping ONE slot set, so a call can
//	            lose, retry, or steal;
//	random150k  tasks of 11 calls at random nodes of a 150k-node array of
//	            16-byte nodes — the cache behaviour of bfs/mis inspect.
func BenchmarkWriteMax(b *testing.B) {
	b.Run("private", func(b *testing.B) {
		locks := make([]Lockable, benchSlots)
		var ring [recRing]Rec
		rec := &ring[0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%benchSlots == 0 {
				sweep := i / benchSlots
				rec = &ring[sweep%recRing]
				rec.Reset(uint64(sweep) + 1)
			}
			locks[i%benchSlots].WriteMax(rec)
		}
	})
	b.Run("contended", func(b *testing.B) {
		locks := make([]Lockable, benchSlots)
		var sweep atomic.Uint64
		b.RunParallel(func(pb *testing.PB) {
			var ring [recRing]Rec
			rec := &ring[0]
			for i := 0; pb.Next(); i++ {
				if i%benchSlots == 0 {
					id := sweep.Add(1)
					rec = &ring[id%recRing]
					rec.Reset(id)
				}
				locks[i%benchSlots].WriteMax(rec)
			}
		})
	})
	b.Run("random150k", func(b *testing.B) {
		type node struct {
			Lockable
			dist uint64
		}
		const nodes, perTask, workers = 150_000, 11, 2
		graph := make([]node, nodes)
		targets := make([]int32, 1<<20)
		r := rng.New(7)
		for i := range targets {
			targets[i] = int32(r.Intn(nodes))
		}
		b.ResetTimer()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var ring [recRing]Rec
				rec := &ring[0]
				at := w * len(targets) / workers
				for i := 0; i < b.N/workers; i++ {
					if i%perTask == 0 {
						// Ascending and distinct across workers; wraps
						// inside a 24-bit id field on very long runs.
						task := i / perTask
						rec = &ring[task%recRing]
						rec.Reset(uint64(task*workers+w)%(1<<24-1) + 1)
					}
					graph[targets[at]].WriteMax(rec)
					if at++; at == len(targets) {
						at = 0
					}
				}
			}(w)
		}
		wg.Wait()
	})
}

// BenchmarkTryAcquireRelease times the speculative scheduler's lock and
// unlock of a free location, per pair.
func BenchmarkTryAcquireRelease(b *testing.B) {
	locks := make([]Lockable, benchSlots)
	var rec Rec
	rec.Reset(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := &locks[i%benchSlots]
		l.TryAcquire(&rec)
		l.Release(&rec)
	}
}
