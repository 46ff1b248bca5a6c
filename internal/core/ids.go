package core

// The locality interleave reorders a generation's tasks so that tasks
// adjacent in the original iteration order land in different scheduling
// windows — the locality-aware round placement of §3.3. Applications lay
// out tasks with high locality close together; executed in one window those
// tasks would conflict, so the scheduler deals them round-robin into
// ceil(n/w0) buckets (w0 = the initial window) and concatenates the
// buckets. The permutation is a pure function of (n, w0): deterministic and
// thread-independent. interleaveBuckets and interleaveSrc are its single
// definition in the engine — generation formation derives each output slot
// from them — and spec_test.go's interpreter deals the buckets out the
// naive way to check it.

// interleaveBuckets returns the bucket count of the interleave for n tasks
// and initial window w0, or <= 1 when the interleave is the identity (the
// historical guards: trivial generations, degenerate windows, single
// bucket).
func interleaveBuckets(n, w0 int) int {
	if n <= 2 || w0 <= 0 || w0 >= n {
		return 1
	}
	return (n + w0 - 1) / w0
}

// interleaveSrc returns the source index of output position p under the
// interleave of n tasks into `buckets` buckets (buckets > 1). Bucket b
// holds the sources {b, b+buckets, ...}; the first n%buckets buckets hold
// one extra element. Inverting the concatenation analytically makes every
// output slot a pure function of its index — the property that lets the
// formation pass run under a static parallel partition with no intermediate
// buffer.
func interleaveSrc(p, n, buckets int) int {
	q, rem := n/buckets, n%buckets
	var b, j int
	if p < rem*(q+1) {
		b, j = p/(q+1), p%(q+1)
	} else {
		p -= rem * (q + 1)
		b, j = rem+p/q, p%q
	}
	return b + j*buckets
}
