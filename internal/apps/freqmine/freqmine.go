// Package freqmine is the repository's stand-in for the PARSEC freqmine
// application (paper §4.1, §5.2). PARSEC freqmine is FP-growth frequent-
// itemset mining; its scheduling-relevant profile is two-phase: a parallel
// counting scan with per-thread accumulation and a coarse merge, then
// dynamically load-balanced mining of per-item projections, each a
// substantial chunk of work claimed from a shared counter. Synchronization
// is orders of magnitude rarer than in the irregular graph benchmarks
// (Figure 5), which is what the Figure 6 contrast needs.
//
// This package implements that two-phase miner for real over synthetic
// transactions: it counts exact co-occurrence pairs and reports frequent
// pairs (depth-2 FP-growth — full recursive growth adds depth, not
// different scheduling behaviour). See DESIGN.md §3.
package freqmine

import (
	"galois/internal/canon"
	"galois/internal/coredet"
	"galois/internal/rng"
)

// Config sizes the miner.
type Config struct {
	Transactions int
	Items        int
	MaxTxnLen    int
	MinSupport   int
}

// DefaultConfig gives a workload with a meaningful frequent-pair set.
func DefaultConfig() Config {
	return Config{Transactions: 20000, Items: 400, MaxTxnLen: 12, MinSupport: 60}
}

// GenTransactions produces a skewed synthetic basket dataset: item
// popularity follows a power-ish law so real frequent pairs exist.
func GenTransactions(cfg Config, seed uint64) [][]uint16 {
	r := rng.New(seed)
	txns := make([][]uint16, cfg.Transactions)
	for i := range txns {
		l := 2 + r.Intn(cfg.MaxTxnLen-1)
		seen := map[uint16]bool{}
		txn := make([]uint16, 0, l)
		for len(txn) < l {
			// Square the uniform draw to skew toward small ids.
			u := r.Float64()
			item := uint16(u * u * float64(cfg.Items))
			if !seen[item] {
				seen[item] = true
				txn = append(txn, item)
			}
		}
		txns[i] = txn
	}
	return txns
}

// Result summarizes a mining run.
type Result struct {
	FrequentItems int
	FrequentPairs int
	// Checksum folds the frequent pairs and supports deterministically.
	Checksum uint64
}

// Run mines txns on rt with nthreads threads.
func Run(cfg Config, txns [][]uint16, nthreads int, rt *coredet.Runtime) Result {
	items := cfg.Items
	// Phase 1: per-thread item counting; merge under a lock per thread
	// (coarse synchronization, as in freqmine's reduction).
	global := make([]int64, items)
	var mergeLock coredet.Mutex
	var cursor1 int64

	// Phase 2 state: for each frequent item, count joint occurrences
	// with every other frequent item across its transaction list.
	// Mining work is claimed item-by-item from a shared counter.
	var frequent []uint16
	byItem := make([][]int32, items)
	pairCounts := make([][]int64, 0) // indexed by frequent-item rank
	var cursor2 int64
	barrier := coredet.NewBarrier(nthreads)

	rt.Run(nthreads, func(t *coredet.Thread) {
		local := make([]int64, items)
		const chunk = 256
		for {
			start := t.AtomicAdd(&cursor1, chunk) - chunk
			if start >= int64(len(txns)) {
				break
			}
			end := min(start+chunk, int64(len(txns)))
			for _, txn := range txns[start:end] {
				for _, it := range txn {
					local[it]++
				}
				t.Work(int64(4 * len(txn)))
			}
		}
		t.Lock(&mergeLock)
		for i, c := range local {
			global[i] += c
		}
		t.Work(int64(items))
		t.Unlock(&mergeLock)
		t.BarrierWait(barrier)

		// Serial setup of phase 2 on thread 0.
		if t.ID() == 0 {
			for i := 0; i < items; i++ {
				if global[i] >= int64(cfg.MinSupport) {
					frequent = append(frequent, uint16(i))
				}
			}
			rank := make([]int32, items)
			for i := range rank {
				rank[i] = -1
			}
			for k, it := range frequent {
				rank[it] = int32(k)
			}
			for ti, txn := range txns {
				for _, it := range txn {
					if rank[it] >= 0 {
						byItem[it] = append(byItem[it], int32(ti))
					}
				}
			}
			pairCounts = make([][]int64, len(frequent))
			for k := range pairCounts {
				pairCounts[k] = make([]int64, len(frequent))
			}
			t.Work(int64(len(txns)))
		}
		t.BarrierWait(barrier)

		// Phase 2: mine projections, one frequent item at a time.
		for {
			k := t.AtomicAdd(&cursor2, 1) - 1
			if k >= int64(len(frequent)) {
				break
			}
			it := frequent[k]
			counts := pairCounts[k]
			for _, ti := range byItem[it] {
				for _, other := range txns[ti] {
					if other == it {
						continue
					}
					if g := global[other]; g >= int64(cfg.MinSupport) {
						// Rank lookup via binary search over the
						// sorted frequent list.
						counts[rankIndex(frequent, other)]++
					}
				}
				t.Work(int64(8 * len(txns[ti])))
			}
		}
	})

	res := Result{FrequentItems: len(frequent)}
	h := canon.NewFNV()
	for k := range pairCounts {
		for j, c := range pairCounts[k] {
			if j <= k {
				continue
			}
			// A pair counted from item k's projection; support is
			// symmetric, count once.
			if c >= int64(cfg.MinSupport) {
				res.FrequentPairs++
				h = h.Word(uint64(k)<<32 ^ uint64(j)<<16 ^ uint64(c))
			}
		}
	}
	res.Checksum = uint64(h)
	return res
}

// rankIndex finds it in the sorted frequent list.
func rankIndex(frequent []uint16, it uint16) int32 {
	lo, hi := 0, len(frequent)
	for lo < hi {
		mid := (lo + hi) / 2
		if frequent[mid] < it {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}
