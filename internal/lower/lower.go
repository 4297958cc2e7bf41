// Package lower implements lower bounds on the DTW distance — LB_Kim and
// the LB_Keogh envelope bound of "Exact indexing of dynamic time warping"
// (Keogh, VLDB 2002), the paper's reference [7]. Lower bounds let a
// retrieval engine discard most candidates without touching the DTW grid:
// if the bound already exceeds the best distance found so far, the
// candidate cannot enter the result set.
//
// The bounds here are valid for band-constrained DTW as well: every band
// in this repository contains the Sakoe-Chiba corridor its envelope
// assumes or is itself an over-estimate of full DTW, and constrained DTW
// never underestimates the unconstrained distance, so
// LB(x,y) <= DTW(x,y) <= sDTW(x,y) holds throughout.
//
// The public Index builds its k-NN query cascade on these bounds, for
// the sDTW engine and the windowed exact-DTW family alike: LB_Kim orders
// and pre-filters candidates, and per-series envelopes (at a radius the
// index derives from the band configuration so the chain above holds)
// power the LB_Keogh stage. The cascade finishes with early-abandoning
// DTW, which bounds an abandoned candidate only by the budget it
// exceeded: the cells a pruned dynamic program fills may have lost their
// cheapest predecessor, so no row minimum of one is a lower bound.
package lower

import (
	"fmt"
	"math"

	"sdtw/internal/series"
)

// Kim returns the LB_Kim lower bound (the simplified 4-point variant in
// common use): the sum of the point costs of the first and last
// elements, which every warp path must align. It is the cheapest bound
// in the cascade.
//
// The series.PointDistance parameter is ignored — the point cost is
// always (a−b)² — and goes with the benchmark edit of ROADMAP item 2c:
// the nested benchmark module calls Kim with a nil cost.
//
//sdtw:hotpath
func Kim(x, y []float64, _ series.PointDistance) (float64, error) {
	if len(x) == 0 || len(y) == 0 {
		return 0, fmt.Errorf("lower: empty input (len(x)=%d len(y)=%d)", len(x), len(y))
	}
	if len(x) == 1 && len(y) == 1 {
		// First and last are the same grid cell; summing both would
		// double-count it and overshoot the single-cell DTW distance.
		return sq(x[0], y[0]), nil
	}
	return sq(x[0], y[0]) + sq(x[len(x)-1], y[len(y)-1]), nil
}

// Envelope is the precomputable upper/lower envelope of a series under a
// warping window of the given radius: Upper[i] = max(v[i-r..i+r]),
// Lower[i] = min(v[i-r..i+r]). Envelopes are computed once per indexed
// series and reused for every query (the same one-time trade the paper
// makes for salient features, §3.4).
type Envelope struct {
	Upper, Lower []float64
	Radius       int
}

// NewEnvelope computes the envelope of v for a warping radius r (>= 0)
// using Lemire's streaming min/max (two monotonic deques, O(n)).
//
// A build allocates exactly twice regardless of n and r: one flat backing
// for both output arrays and one for both index deques. The deques are
// rings addressed by head/tail counters — pops move an index instead of
// re-slicing, so the backing never re-grows mid-stream (the window
// [i-r, i+r] bounds the live indices by min(2r+2, n)).
func NewEnvelope(v []float64, r int) Envelope {
	n := len(v)
	if r < 0 {
		r = 0
	}
	env := Envelope{Radius: r}
	out := make([]float64, 2*n)
	env.Upper, env.Lower = out[:n:n], out[n:]
	if n == 0 {
		return env
	}
	// Ring capacity: the deques hold at most min(2r+2, n) live indices
	// (2r+1 in a full window, plus the element being pushed before the
	// lazy head pop). Power-of-two capacity so the wrap is a mask.
	size := 2*r + 2
	if size > n {
		size = n
	}
	ringCap := 1
	for ringCap < size {
		ringCap <<= 1
	}
	mask := ringCap - 1
	dq := make([]int, 2*ringCap)
	maxQ, minQ := dq[:ringCap:ringCap], dq[ringCap:]
	var maxH, maxT, minH, minT int // deques occupy [head, tail)

	emit := 0 // next position whose window is complete
	for j := 0; j < n; j++ {
		// Push j: drop dominated indices from the tails, then append.
		for maxT > maxH && v[maxQ[(maxT-1)&mask]] <= v[j] {
			maxT--
		}
		maxQ[maxT&mask] = j
		maxT++
		for minT > minH && v[minQ[(minT-1)&mask]] >= v[j] {
			minT--
		}
		minQ[minT&mask] = j
		minT++
		if j < r {
			continue // window [i-r, i+r] for i = j-r not complete yet
		}
		i := j - r
		lo := i - r
		for maxQ[maxH&mask] < lo {
			maxH++
		}
		for minQ[minH&mask] < lo {
			minH++
		}
		env.Upper[i] = v[maxQ[maxH&mask]]
		env.Lower[i] = v[minQ[minH&mask]]
		emit = i + 1
	}
	// Trailing positions whose window is truncated by the end of v.
	for i := emit; i < n; i++ {
		lo := i - r
		for maxQ[maxH&mask] < lo {
			maxH++
		}
		for minQ[minH&mask] < lo {
			minH++
		}
		env.Upper[i] = v[maxQ[maxH&mask]]
		env.Lower[i] = v[minQ[minH&mask]]
	}
	return env
}

// Keogh returns the LB_Keogh lower bound of the DTW distance between the
// query q and the series whose envelope is env. Both must have the same
// length (resample first for unequal lengths; the bound then holds for
// the resampled problem). The bound is Σ (q_i − U_i)² for q_i above the
// upper envelope plus (q_i − L_i)² below the lower envelope.
//
// The series.PointDistance parameter is ignored — the point cost is
// always (a−b)² — and goes with the benchmark edit of ROADMAP item 2c:
// the nested benchmark module calls Keogh with a nil cost.
func Keogh(q []float64, env Envelope, _ series.PointDistance) (float64, error) {
	sum, _, err := KeoghUnder(q, env, math.Inf(1), nil)
	return sum, err
}

// KeoghUnder is Keogh with early abandonment against a pruning threshold:
// every partial sum of envelope deviations is itself a valid (and
// non-decreasing) lower bound, so summation stops the moment the partial
// sum exceeds threshold (exclusive) and the partial sum is returned with
// abandoned=true — it already proves the candidate prunable at that
// threshold. A threshold of +Inf (or NaN) never abandons and returns the
// exact LB_Keogh value, bit for bit the same as Keogh. Retrieval cascades
// pass their best-so-far k-th distance, so hopeless candidates stop after
// a few elements instead of summing the whole series.
//
// The series.PointDistance parameter is ignored — the point cost is
// always (a−b)² — and goes with the benchmark edit of ROADMAP item 2c:
// the nested benchmark module calls KeoghUnder with a nil cost.
//
//sdtw:hotpath
func KeoghUnder(q []float64, env Envelope, threshold float64, _ series.PointDistance) (float64, bool, error) {
	if len(q) != len(env.Upper) {
		return 0, false, fmt.Errorf("lower: query length %d != envelope length %d", len(q), len(env.Upper))
	}
	if math.IsNaN(threshold) {
		threshold = math.Inf(1)
	}
	sum, abandoned := keoghSquaredUnder(q, env.Upper, env.Lower, threshold)
	return sum, abandoned, nil
}

// ValidateBound is a test helper contract: a lower bound must never
// exceed the exact DTW distance. It returns an error describing the
// violation, or nil.
func ValidateBound(bound, exact float64) error {
	if bound > exact+float64(1e-9*(1+math.Abs(exact))) {
		return fmt.Errorf("lower: bound %v exceeds exact DTW %v", bound, exact)
	}
	return nil
}
