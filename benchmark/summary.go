package main

import (
	"math"
	"sort"
)

// quantile is the q-quantile (0..1) of xs, which must be sorted ascending,
// interpolating linearly between the two closest ranks. Empty input gives 0.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// quartiles summarizes one sample: count, first quartile, median, third.
type quartiles struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func summarize(xs []float64) quartiles {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quartiles{N: len(s), Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75)}
}

func median(xs []float64) float64 { return summarize(xs).Median }

// spread is the interquartile range as a share of the median — the noise
// measure every bound in BENCHMARK.json is judged against.
func (q quartiles) spread() float64 {
	if q.Median == 0 {
		return 0
	}
	return (q.Q3 - q.Q1) / math.Abs(q.Median)
}

// tailCandidates are the percentiles a latency tail may be reported at.
var tailCandidates = []float64{0.99, 0.95, 0.90, 0.75}

// supportedTail is the highest candidate percentile that leaves at least ten
// of n samples beyond it, or 0 when even the lowest does not: a percentile
// with fewer samples above it is decided by a handful of outliers.
func supportedTail(n int) float64 {
	for _, q := range tailCandidates {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0
}

// geomean is the geometric mean of positive values; cells whose latencies
// differ by 50x each pull it by their own ratio, which a pooled median or an
// arithmetic mean would not. Non-positive values are skipped.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
