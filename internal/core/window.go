package core

const (
	// defaultWindowMin is the window floor. A policy constant, not a
	// machine parameter: it is never tuned per machine and the window
	// sequence it produces depends only on commit counts.
	defaultWindowMin = 16
	// defaultWindowTarget is the commit-ratio target of the adaptive
	// policy in §3.2: below it the window shrinks proportionally, at or
	// above it the window doubles.
	defaultWindowTarget = 0.95
	// windowInitDivisor sets the default initial window to n/div.
	windowInitDivisor = 64
	// windowMax bounds window growth (purely to bound per-round memory).
	windowMax = 1 << 22
)

// windowPolicy implements calculateWindow from Figure 2. Its state evolves
// as a pure function of (attempted, committed) pairs, which are themselves
// independent of the number of executing threads — this is the paper's
// portability argument for the adaptive scheme.
type windowPolicy struct {
	size int
}

// newWindowPolicy returns the policy for a generation of n tasks.
func newWindowPolicy(n int, opt Options) windowPolicy {
	size := opt.WindowInit
	if size <= 0 {
		size = n / windowInitDivisor
	}
	return windowPolicy{size: min(max(size, defaultWindowMin), windowMax)}
}

// next returns the window for a round with `remaining` tasks pending.
func (w *windowPolicy) next(remaining int) int {
	if w.size > remaining {
		return remaining
	}
	return w.size
}

// update adjusts the window after a round that attempted `attempted` tasks
// and committed `committed` of them, and returns the new size.
func (w *windowPolicy) update(attempted, committed int) int {
	if attempted == 0 {
		return w.size
	}
	ratio := float64(committed) / float64(attempted)
	if ratio < defaultWindowTarget {
		// Shrink proportionally toward the target commit ratio.
		w.size = max(int(float64(attempted)*ratio/defaultWindowTarget)+1, defaultWindowMin)
		return w.size
	}
	// At or above target: double, from the larger of the policy size and
	// what was actually attempted (the attempt may have been clamped by
	// the number of remaining tasks).
	w.size = min(max(w.size, attempted)*2, windowMax)
	return w.size
}
