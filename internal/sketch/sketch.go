// Package sketch implements the fixed-width PAA stage-0 filter of the
// retrieval cascade: every indexed series is summarised by a sketch of W
// coefficients — the per-segment max of its LB_Keogh upper envelope and
// min of its lower envelope — and a query is summarised once by its W
// per-segment means. The resulting LB_PAA bound (the UCR-suite idiom of
// "Searching and mining trillions of time series subsequences under
// dynamic time warping", Rakthanmanon et al., KDD 2012) costs O(W) per
// candidate instead of O(n), and touches neither the candidate's raw
// values nor its full envelope — which is what lets a segment-store
// index keep raw values cold on disk until a candidate survives stage 0.
//
// Admissibility: segment k covers positions [k·n/W, (k+1)·n/W). Within
// it, [Lower[i], Upper[i]] ⊆ [L̂_k, Û_k] where Û_k = max Upper[i] and
// L̂_k = min Lower[i], so each point's deviation from the widened flat
// interval never exceeds its LB_Keogh deviation; and the squared
// distance to an interval is convex in the point, so by Jensen's
// inequality the segment's summed deviation is at least len_k times the
// deviation of the segment mean. Hence
//
//	LB_PAA(q̄, sketch) <= LB_Keogh(q, env) <= DTW(q, c)
//
// for every band in this repository (the same chain LB_Keogh itself
// rides; see package lower). Like LB_Kim and LB_Keogh, the bound holds
// for the squared point cost, the one the repository computes.
package sketch

import (
	"fmt"

	"sdtw/internal/lower"
)

// Sketch is the W-coefficient stage-0 summary of one indexed series:
// per-segment extrema of its LB_Keogh envelope. Upper and Lower have
// equal length (the sketch width). A sketch is built once per series
// (from the envelope the index computes anyway) and is immutable.
type Sketch struct {
	Upper, Lower []float64
}

// Width returns the coefficient count.
func (s Sketch) Width() int { return len(s.Upper) }

// FromEnvelope summarises an envelope into a width-w sketch: segment k
// of a length-n series covers positions [k·n/w, (k+1)·n/w), and the
// sketch keeps the max upper / min lower envelope value over each
// segment. Segments left empty when n < w stay 0 — their length is
// zero, so LBPAA skips them and they never contribute to the bound.
// One allocation backs both coefficient slices.
func FromEnvelope(env lower.Envelope, w int) (Sketch, error) {
	n := len(env.Upper)
	if w < 1 {
		return Sketch{}, fmt.Errorf("sketch: width must be >= 1, got %d", w)
	}
	if n == 0 {
		return Sketch{}, fmt.Errorf("sketch: empty envelope")
	}
	out := make([]float64, 2*w)
	sk := Sketch{Upper: out[:w:w], Lower: out[w:]}
	for k := 0; k < w; k++ {
		lo, hi := k*n/w, (k+1)*n/w
		if hi <= lo {
			continue // empty segment (n < w); LBPAA skips it too
		}
		u, l := env.Upper[lo], env.Lower[lo]
		for i := lo + 1; i < hi; i++ {
			if env.Upper[i] > u {
				u = env.Upper[i]
			}
			if env.Lower[i] < l {
				l = env.Lower[i]
			}
		}
		sk.Upper[k], sk.Lower[k] = u, l
	}
	return sk, nil
}

// Means computes the query-side PAA summary: the mean of q over each of
// the w segments of its length. out is reused when it has capacity w
// (append-style), so a search can hold one scratch slice and pay zero
// allocations per query after the first. Empty segments (len(q) < w)
// are left 0; LBPAA never reads them.
func Means(q []float64, w int, out []float64) ([]float64, error) {
	n := len(q)
	if w < 1 {
		return nil, fmt.Errorf("sketch: width must be >= 1, got %d", w)
	}
	if n == 0 {
		return nil, fmt.Errorf("sketch: empty query")
	}
	if cap(out) < w {
		out = make([]float64, w)
	}
	out = out[:w]
	for k := 0; k < w; k++ {
		lo, hi := k*n/w, (k+1)*n/w
		if hi <= lo {
			out[k] = 0
			continue
		}
		sum := 0.0
		for _, v := range q[lo:hi] {
			sum += v
		}
		out[k] = sum / float64(hi-lo)
	}
	return out, nil
}

// LBPAA returns the stage-0 lower bound between a query summarised by
// qmean (its Means at the sketch's width) and a candidate of length n
// summarised by sk: for each segment, the squared deviation of the
// query's segment mean from the sketch's flat interval, scaled by the
// segment length. The caller guarantees len(qmean) == sk.Width() and
// that the query length equals n (the same equal-length contract
// LB_Keogh has; unequal lengths skip stage 0 exactly as they skip the
// Keogh stage). Squared deviations round through an explicit float64
// conversion like the Keogh kernel's, so fused multiply-add cannot
// inflate the bound past its unfused evaluation.
//
//sdtw:hotpath
func LBPAA(qmean []float64, sk Sketch, n int) float64 {
	w := len(sk.Upper)
	up := sk.Upper[:w:w]
	lo := sk.Lower[:w:w]
	qm := qmean[:w:w]
	sum := 0.0
	for k := 0; k < w; k++ {
		segLo, segHi := k*n/w, (k+1)*n/w
		if segHi <= segLo {
			continue
		}
		m := qm[k]
		var d float64
		if u := up[k]; m > u {
			d = m - u
		} else if l := lo[k]; m < l {
			d = m - l
		} else {
			continue
		}
		sum += float64(segHi-segLo) * float64(d*d)
	}
	return sum
}
