package lower

// Monomorphized lower-bound kernels for the default squared point cost,
// the sibling of internal/dtw/kernel.go: LB_Kim and LB_Keogh otherwise
// pay one indirect series.PointDistance call per contributing element,
// which dominates their runtime in the retrieval cascade. The same
// bit-identity contract applies — identical floating-point operations in
// identical order, with squared costs rounded through an explicit float64
// conversion so fused multiply-add cannot diverge from the generic path.

import (
	"sdtw/internal/series"
)

// useSquaredKernel reports whether dist selects the default squared cost
// (nil or series.SquaredDistance itself), enabling the monomorphized
// kernels. The decision lives in internal/series, shared with the
// dynamic-program kernels so the two packages cannot disagree.
func useSquaredKernel(dist series.PointDistance) bool {
	return series.UseSquaredKernel(dist)
}

// sq is the inlined default cost (a-b)², rounded through an explicit
// conversion exactly like a series.PointDistance call result.
func sq(a, b float64) float64 {
	d := a - b
	return float64(d * d)
}

// keoghSquaredUnder sums the squared envelope deviations of q, stopping
// as soon as the partial sum exceeds threshold (exclusive) — the partial
// sum is itself a non-decreasing lower bound, so an abandoned sum already
// proves the candidate prunable. The envelopes are re-sliced to len(q) so
// the hot loop carries no bounds checks. threshold = +Inf never abandons
// and yields the exact LB_Keogh sum, bit-identical to the generic loop.
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

// keoghGenericUnder is keoghSquaredUnder through an arbitrary point cost,
// with the same accumulation order and abandonment points as the
// specialized kernel and the same per-element order as the original
// non-abandoning Keogh loop.
//
//sdtw:hotpath
func keoghGenericUnder(q []float64, env Envelope, threshold float64, dist series.PointDistance) (float64, bool) {
	sum := 0.0
	for i, v := range q {
		switch {
		case v > env.Upper[i]:
			sum += dist(v, env.Upper[i])
		case v < env.Lower[i]:
			sum += dist(v, env.Lower[i])
		default:
			continue
		}
		if sum > threshold {
			return sum, true
		}
	}
	return sum, false
}
