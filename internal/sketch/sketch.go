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

// DefaultWidth is the sketch width of every in-RAM index: 16
// coefficients per envelope side keeps the sketch pass under 1/8th of a
// full LB_Keogh scan for the UCR-scale lengths the paper evaluates while
// still pruning most far candidates. LB_PAA is admissible at every width,
// so the width never changes a search's results.
const DefaultWidth = 16

// Sketch is the W-coefficient stage-0 summary of one indexed series:
// per-segment extrema of its LB_Keogh envelope. Upper and Lower have
// equal length (the sketch width). A sketch is built once per series
// (from the envelope the index computes anyway) and is immutable.
type Sketch struct {
	Upper, Lower []float64
}

// Width returns the coefficient count.
func (s Sketch) Width() int { return len(s.Upper) }

// segments walks the w segments of a length-n series in order: segment k
// covers [k·n/w, (k+1)·n/w). The one division is up front; each step adds
// the quotient n/w and carries the remainder n%w, so (k+1)·n/w is
// k·n/w + n/w, plus one whenever the carried remainder reaches w. Means,
// FromEnvelope and LBPAA all walk through it, so they agree on what a
// segment is.
type segments struct {
	q, r, w int // n/w, n%w, w
	hi, acc int // end of the last segment, k·(n%w) mod w
}

func newSegments(n, w int) segments { return segments{q: n / w, r: n % w, w: w} }

// next returns the bounds [lo, hi) of the next segment; hi == lo for the
// empty segments of n < w.
func (s *segments) next() (lo, hi int) {
	lo = s.hi
	s.hi += s.q
	if s.acc += s.r; s.acc >= s.w {
		s.acc -= s.w
		s.hi++
	}
	return lo, s.hi
}

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
	seg := newSegments(n, w)
	for k := 0; k < w; k++ {
		lo, hi := seg.next()
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
	seg := newSegments(n, w)
	for k := 0; k < w; k++ {
		lo, hi := seg.next()
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

// Weights computes the length of each of the w segments of a length-n
// series as a float64 — the factor LBPAA scales segment k's squared
// deviation by, and 0 for the empty segments of n < w. The lengths depend
// on (n, w) alone, so a search computes them once per query beside its
// Means instead of walking the segments again for every candidate. out
// is reused when it has capacity w. The caller guarantees n >= 1 and
// w >= 1 (Means checks both).
func Weights(n, w int, out []float64) []float64 {
	if cap(out) < w {
		out = make([]float64, w)
	}
	out = out[:w]
	seg := newSegments(n, w)
	for k := range out {
		lo, hi := seg.next()
		out[k] = float64(hi - lo)
	}
	return out
}

// LBPAA returns the stage-0 lower bound between a query summarised by
// qmean (its Means at the sketch's width) and a candidate of length n
// summarised by sk: for each segment, the squared deviation of the
// query's segment mean from the sketch's flat interval, scaled by the
// segment length. The caller guarantees len(qmean) == sk.Width() and
// that the query length equals n (the same equal-length contract
// LB_Keogh has; unequal lengths skip stage 0 exactly as they skip the
// Keogh stage). Squared deviations, and each term, round through an
// explicit float64 conversion like the Keogh kernel's, so fused
// multiply-add cannot inflate the bound past its unfused evaluation.
//
// LBPAA is the reference form, one candidate at a time; a search runs
// LBPAABlock, which returns the same bits.
//
//sdtw:hotpath
func LBPAA(qmean []float64, sk Sketch, n int) float64 {
	w := len(sk.Upper)
	up := sk.Upper[:w:w]
	lo := sk.Lower[:w:w]
	qm := qmean[:w:w]
	sum := 0.0
	seg := newSegments(n, w)
	for k := 0; k < w; k++ {
		segLo, segHi := seg.next()
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
		sum += float64(float64(segHi-segLo) * float64(d*d))
	}
	return sum
}

// LBPAABlock writes to out[j] the LBPAA bound of sks[j], for up to four
// candidates of one query at once: qmean is the query's Means and
// weights its Weights at the sketches' width, and every candidate has the
// query's length. The four sums are independent, so their adds overlap
// instead of forming one serial chain, and the query's coefficient and
// segment length are loaded once for all four. Each sum still adds
// weights[k]·d² for k = 0…w−1 in order, under LBPAA's m > u / m < l
// cascade, skipping the empty segments LBPAA skips — so out[j] is
// LBPAA(qmean, sks[j], n), bit for bit, NaN and infinite coefficients
// included. A block of fewer than four is padded with its first sketch
// and the padding's bounds dropped. len(out) must be at least len(sks),
// and len(sks) in 1…4.
//
//sdtw:hotpath
func LBPAABlock(qmean, weights []float64, sks []Sketch, out []float64) {
	if len(sks) == 4 {
		lbpaa4(qmean, weights, (*[4]Sketch)(sks), (*[4]float64)(out[:4]))
		return
	}
	blk := [4]Sketch{sks[0], sks[0], sks[0], sks[0]}
	copy(blk[:], sks)
	var sums [4]float64
	lbpaa4(qmean, weights, &blk, &sums)
	copy(out[:len(sks)], sums[:])
}

// lbpaa4 is LBPAABlock for a full block of four.
//
//sdtw:hotpath
func lbpaa4(qmean, weights []float64, sks *[4]Sketch, out *[4]float64) {
	w := len(weights)
	qm := qmean[:w:w]
	u0, l0 := sks[0].Upper[:w:w], sks[0].Lower[:w:w]
	u1, l1 := sks[1].Upper[:w:w], sks[1].Lower[:w:w]
	u2, l2 := sks[2].Upper[:w:w], sks[2].Lower[:w:w]
	u3, l3 := sks[3].Upper[:w:w], sks[3].Lower[:w:w]
	var s0, s1, s2, s3 float64
	for k, wk := range weights {
		if wk == 0 {
			continue // empty segment (n < w)
		}
		m := qm[k]
		if d := m - u0[k]; m > u0[k] {
			s0 += float64(wk * float64(d*d))
		} else if d := m - l0[k]; m < l0[k] {
			s0 += float64(wk * float64(d*d))
		}
		if d := m - u1[k]; m > u1[k] {
			s1 += float64(wk * float64(d*d))
		} else if d := m - l1[k]; m < l1[k] {
			s1 += float64(wk * float64(d*d))
		}
		if d := m - u2[k]; m > u2[k] {
			s2 += float64(wk * float64(d*d))
		} else if d := m - l2[k]; m < l2[k] {
			s2 += float64(wk * float64(d*d))
		}
		if d := m - u3[k]; m > u3[k] {
			s3 += float64(wk * float64(d*d))
		} else if d := m - l3[k]; m < l3[k] {
			s3 += float64(wk * float64(d*d))
		}
	}
	out[0], out[1], out[2], out[3] = s0, s1, s2, s3
}
