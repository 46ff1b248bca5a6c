// Package psort provides a deterministic parallel merge sort. The output
// is the unique sorted permutation for any comparison function that never
// reports equality for distinct elements, so parallelism cannot perturb
// determinism; for equal elements the merge is stable. The DIG scheduler
// does not use it: a generation's children are already in (id(parent), k)
// order when read by slot (internal/core, endGeneration).
package psort

import (
	"slices"
	"sync"
)

// serialThreshold is the block size below which sorting inline beats
// spawning.
const serialThreshold = 1 << 13

// Sort sorts items in place with cmp (negative = a before b) using up to
// nthreads goroutines.
func Sort[T any](items []T, cmp func(a, b T) int, nthreads int) {
	n := len(items)
	if nthreads <= 1 || n <= serialThreshold {
		slices.SortStableFunc(items, cmp)
		return
	}
	blocks := nthreads
	if n/blocks < serialThreshold/4 {
		blocks = n / (serialThreshold / 4)
		if blocks < 2 {
			slices.SortStableFunc(items, cmp)
			return
		}
	}
	// Block boundaries.
	bounds := make([]int, blocks+1)
	for i := 0; i <= blocks; i++ {
		bounds[i] = n * i / blocks
	}
	// Sort blocks in parallel.
	var wg sync.WaitGroup
	for b := 0; b < blocks; b++ {
		wg.Add(1)
		//detlint:ignore goroutineorder each goroutine stable-sorts a disjoint static block; the result is a pure function of the input regardless of completion order
		go func(lo, hi int) {
			defer wg.Done()
			slices.SortStableFunc(items[lo:hi], cmp)
		}(bounds[b], bounds[b+1])
	}
	wg.Wait()
	// Iterative pairwise merging, each level's merges in parallel.
	src, dst := items, make([]T, n)
	for width := 1; width < blocks; width *= 2 {
		var mw sync.WaitGroup
		for b := 0; b < blocks; b += 2 * width {
			loIdx := b
			midIdx := min(b+width, blocks)
			hiIdx := min(b+2*width, blocks)
			lo, mid, hi := bounds[loIdx], bounds[midIdx], bounds[hiIdx]
			mw.Add(1)
			//detlint:ignore goroutineorder the merge tree is fixed by block indices, each merge writes a disjoint dst range, and levels are joined before the next begins
			go func(lo, mid, hi int) {
				defer mw.Done()
				mergeInto(dst[lo:hi], src[lo:mid], src[mid:hi], cmp)
			}(lo, mid, hi)
		}
		mw.Wait()
		src, dst = dst, src
	}
	if &src[0] != &items[0] {
		copy(items, src)
	}
}

// mergeInto merges the sorted runs a and b into out (stable: ties prefer a).
func mergeInto[T any](out, a, b []T, cmp func(x, y T) int) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if cmp(b[j], a[i]) < 0 {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
}
