package graph

import "testing"

// BenchmarkSymmetrizeKOut times the bfs/mis input build at galoisbench's
// serve-miss size: Symmetrize(RandomKOut(20 000, 5)), both steps, per op.
func BenchmarkSymmetrizeKOut(b *testing.B) {
	var g *CSR
	for i := 0; i < b.N; i++ {
		g = Symmetrize(RandomKOut(20_000, 5, uint64(i)))
	}
	b.ReportMetric(float64(g.M()), "edges")
}
