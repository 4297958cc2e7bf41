package lower

// The lower-bound kernels of the squared point cost, the sibling of
// internal/dtw/kernel.go: the cost inlined and rounded through an explicit
// float64 conversion, so fused multiply-add cannot move a bound off the
// textbook sums the tests hold it to.

// sq is the point cost (a-b)², rounded through an explicit conversion.
func sq(a, b float64) float64 {
	d := a - b
	return float64(d * d)
}

// keoghSquaredUnder sums the squared envelope deviations of q, stopping
// as soon as the partial sum exceeds threshold (exclusive) — the partial
// sum is itself a non-decreasing lower bound, so an abandoned sum already
// proves the candidate prunable. The envelopes are re-sliced to len(q) so
// the hot loop carries no bounds checks. threshold = +Inf never abandons
// and yields the exact LB_Keogh sum.
//
//sdtw:hotpath
func keoghSquaredUnder(q, upper, lowerEnv []float64, threshold float64) (float64, bool) {
	up := upper[:len(q)]
	lo := lowerEnv[:len(q)]
	sum := 0.0
	for i, v := range q {
		var d float64
		if u := up[i]; v > u {
			d = v - u
		} else if l := lo[i]; v < l {
			d = v - l
		} else {
			continue
		}
		sum += float64(d * d)
		if sum > threshold {
			return sum, true
		}
	}
	return sum, false
}
