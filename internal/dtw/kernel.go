package dtw

// Monomorphized, branch-free dynamic-programming kernels for the default
// squared point cost.
//
// Every hot loop in this package is generic over a series.PointDistance
// function pointer, which costs one indirect call per grid cell plus
// per-cell band-interval membership checks. For the default cost (a-b)²
// that overhead dominates the O(band) dynamic programs the locally
// relevant constraints buy (§2.1.1, §3.4). The kernels below run the same
// recurrences with the cost inlined and each band row split into
// pre-overlap / overlap / post-overlap segments against the previous
// row's interval, so the core segment runs branch-free over re-sliced
// buffers (letting the compiler drop the bounds checks) and the tail is a
// pure horizontal accumulation.
//
// Bit-identity contract: every kernel performs the same floating-point
// operations in the same order as its generic counterpart. Squared costs
// round through an explicit float64 conversion so the compiler cannot
// fuse the multiply into the following add across what used to be a
// function-call boundary. Differential tests in kernel_test.go pin
// distance, cell count, abandoned flag and path equality against the
// generic path on random series, bands and budgets.

import (
	"context"
	"math"

	"sdtw/internal/series"
)

// useSquaredKernel reports whether dist selects the default squared cost,
// in which case the dispatch sites may run the monomorphized kernels. The
// decision lives in internal/series, shared with the lower-bound kernels
// so the two packages cannot disagree.
func useSquaredKernel(dist series.PointDistance) bool {
	return series.UseSquaredKernel(dist)
}

// sq is the inlined default cost (a-b)². The explicit float64 conversion
// forces the multiply to round before the caller's add, exactly like the
// result of a series.PointDistance call does, so fused multiply-add
// cannot break bit-identity with the generic path.
func sq(a, b float64) float64 {
	d := a - b
	return float64(d * d)
}

// fillRow0Squared fills the first band row, where cell (0,0) is the free
// origin and the only other predecessor is the horizontal one — a running
// accumulation carried in a register.
//
//sdtw:hotpath
func fillRow0Squared(x0 float64, y []float64, lo, hi int, curr []float64) float64 {
	inf := math.Inf(1)
	rowMin := inf
	h := inf
	for j := lo; j <= hi; j++ {
		best := h
		if j == 0 {
			best = 0
		}
		v := best + sq(x0, y[j])
		curr[j-lo] = v
		h = v
		if v < rowMin {
			rowMin = v
		}
	}
	return rowMin
}

// fillRowSquared fills one band row of the squared-cost dynamic program:
// curr[0..hi-lo] receives the accumulated costs of cells (i, lo..hi)
// given the previous row's interval [prevLo, prevHi] stored in prev. It
// returns the row minimum.
//
// The row is split against the previous row's interval into
//
//	head:  per-cell membership checks (cells before the full overlap);
//	core:  diagonal, vertical and horizontal predecessors all exist —
//	       branch-free over buffers re-sliced to the segment width;
//	tail:  past the previous interval's reach — only the horizontal
//	       predecessor remains, a pure running accumulation;
//
// with at most one boundary cell between core and tail where the diagonal
// still reaches. The comparison order inside every segment (diagonal,
// then vertical on strict <, then horizontal on strict <) is exactly the
// generic loop's.
//
//sdtw:hotpath
func fillRowSquared(xi float64, y []float64, lo, hi int, prev []float64, prevLo, prevHi int, curr []float64) float64 {
	inf := math.Inf(1)
	rowMin := inf
	// All three predecessors exist exactly for j in
	// [max(prevLo, lo)+1, min(prevHi, hi)]; from max(prevHi+2, lo+1) on,
	// only the horizontal predecessor remains.
	coreStart := prevLo + 1
	if lo+1 > coreStart {
		coreStart = lo + 1
	}
	coreEnd := prevHi
	if hi < coreEnd {
		coreEnd = hi
	}
	tailStart := prevHi + 2
	if lo+1 > tailStart {
		tailStart = lo + 1
	}

	j := lo
	// Head: cells before the full overlap, with per-cell checks.
	for ; j <= hi && j < coreStart; j++ {
		best := inf
		if j-1 >= prevLo && j-1 <= prevHi { // diagonal (i-1, j-1)
			best = prev[j-1-prevLo]
		}
		if j >= prevLo && j <= prevHi { // vertical (i-1, j)
			if v := prev[j-prevLo]; v < best {
				best = v
			}
		}
		if j-1 >= lo { // horizontal (i, j-1)
			if v := curr[j-1-lo]; v < best {
				best = v
			}
		}
		v := best + sq(xi, y[j])
		curr[j-lo] = v
		if v < rowMin {
			rowMin = v
		}
	}
	// Core: branch-free. The horizontal dependency rides in h; the
	// re-sliced views are all exactly w long, so the compiler proves the
	// indexing in range once.
	if j <= coreEnd {
		w := coreEnd - j + 1
		yd := y[j : j+w : j+w]
		pd := prev[j-1-prevLo:]
		pd = pd[:w]
		pv := prev[j-prevLo:]
		pv = pv[:w]
		cw := curr[j-lo:]
		cw = cw[:w]
		h := curr[j-1-lo]
		for k := range yd {
			best := pd[k]
			if v := pv[k]; v < best {
				best = v
			}
			if h < best {
				best = h
			}
			d := xi - yd[k]
			v := best + float64(d*d)
			cw[k] = v
			h = v
			if v < rowMin {
				rowMin = v
			}
		}
		j += w
	}
	// Boundary: between core and tail the diagonal may still reach
	// (j == prevHi+1); at most one such cell.
	for ; j <= hi && j < tailStart; j++ {
		best := inf
		if j-1 >= prevLo && j-1 <= prevHi {
			best = prev[j-1-prevLo]
		}
		if j >= prevLo && j <= prevHi {
			if v := prev[j-prevLo]; v < best {
				best = v
			}
		}
		if j-1 >= lo {
			if v := curr[j-1-lo]; v < best {
				best = v
			}
		}
		v := best + sq(xi, y[j])
		curr[j-lo] = v
		if v < rowMin {
			rowMin = v
		}
	}
	// Tail: only the horizontal predecessor remains. An infinite h stays
	// infinite through the accumulation, exactly like the generic cells.
	if j <= hi {
		h := curr[j-1-lo]
		yd := y[j : hi+1 : hi+1]
		cw := curr[j-lo:]
		cw = cw[:len(yd)]
		for k := range yd {
			d := xi - yd[k]
			v := h + float64(d*d)
			cw[k] = v
			h = v
			if v < rowMin {
				rowMin = v
			}
		}
	}
	return rowMin
}

// fillRow0SquaredNoMin is fillRow0Squared without row-minimum tracking,
// for callers that can never abandon (budget +Inf) and so never read it.
//
//sdtw:hotpath
func fillRow0SquaredNoMin(x0 float64, y []float64, lo, hi int, curr []float64) {
	h := math.Inf(1)
	for j := lo; j <= hi; j++ {
		best := h
		if j == 0 {
			best = 0
		}
		v := best + sq(x0, y[j])
		curr[j-lo] = v
		h = v
	}
}

// fillRowSquaredNoMin is fillRowSquared without row-minimum tracking: the
// min update is one data-dependent float branch per cell, a measurable
// fraction of the branch-free core, and callers that cannot abandon
// (budget +Inf — every BandedWS/BandedWithPath computation) never read
// it. Segments and comparison order are identical to fillRowSquared.
//
//sdtw:hotpath
func fillRowSquaredNoMin(xi float64, y []float64, lo, hi int, prev []float64, prevLo, prevHi int, curr []float64) {
	inf := math.Inf(1)
	coreStart := prevLo + 1
	if lo+1 > coreStart {
		coreStart = lo + 1
	}
	coreEnd := prevHi
	if hi < coreEnd {
		coreEnd = hi
	}
	tailStart := prevHi + 2
	if lo+1 > tailStart {
		tailStart = lo + 1
	}

	j := lo
	for ; j <= hi && j < coreStart; j++ {
		best := inf
		if j-1 >= prevLo && j-1 <= prevHi { // diagonal (i-1, j-1)
			best = prev[j-1-prevLo]
		}
		if j >= prevLo && j <= prevHi { // vertical (i-1, j)
			if v := prev[j-prevLo]; v < best {
				best = v
			}
		}
		if j-1 >= lo { // horizontal (i, j-1)
			if v := curr[j-1-lo]; v < best {
				best = v
			}
		}
		curr[j-lo] = best + sq(xi, y[j])
	}
	if j <= coreEnd {
		w := coreEnd - j + 1
		yd := y[j : j+w : j+w]
		pd := prev[j-1-prevLo:]
		pd = pd[:w]
		pv := prev[j-prevLo:]
		pv = pv[:w]
		cw := curr[j-lo:]
		cw = cw[:w]
		h := curr[j-1-lo]
		for k := range yd {
			best := pd[k]
			if v := pv[k]; v < best {
				best = v
			}
			if h < best {
				best = h
			}
			d := xi - yd[k]
			v := best + float64(d*d)
			cw[k] = v
			h = v
		}
		j += w
	}
	for ; j <= hi && j < tailStart; j++ {
		best := inf
		if j-1 >= prevLo && j-1 <= prevHi {
			best = prev[j-1-prevLo]
		}
		if j >= prevLo && j <= prevHi {
			if v := prev[j-prevLo]; v < best {
				best = v
			}
		}
		if j-1 >= lo {
			if v := curr[j-1-lo]; v < best {
				best = v
			}
		}
		curr[j-lo] = best + sq(xi, y[j])
	}
	if j <= hi {
		h := curr[j-1-lo]
		yd := y[j : hi+1 : hi+1]
		cw := curr[j-lo:]
		cw = cw[:len(yd)]
		for k := range yd {
			d := xi - yd[k]
			v := h + float64(d*d)
			cw[k] = v
			h = v
		}
	}
}

// bandedAbandonSquared is BandedAbandonCtx monomorphized for the default
// squared cost: same row order, same cancellation and abandonment points,
// same comparison order — with the cost inlined and rows filled by the
// segmented kernel. A budget of +Inf (or NaN) can never abandon, so that
// path runs the min-free row fillers: tracking the row minimum costs one
// data-dependent float branch per cell, a real fraction of the branch-
// free core. Inputs were validated by the caller.
func bandedAbandonSquared(ctx context.Context, x, y []float64, b Band, budget float64, ws *Workspace) (float64, int, bool, error) {
	n, m := len(x), len(y)
	maxWidth := 0
	for i := 0; i < n; i++ {
		if w := b.Hi[i] - b.Lo[i] + 1; w > maxWidth {
			maxWidth = w
		}
	}
	if ws == nil {
		ws = &Workspace{}
	}
	prev, curr := ws.rows(maxWidth)
	prevLo, prevHi := 0, -1
	cells := 0
	abandonable := !math.IsInf(budget, 1) && !math.IsNaN(budget)
	for i := 0; i < n; i++ {
		if ctx != nil && i%cancelCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return 0, cells, false, err
			}
		}
		lo, hi := b.Lo[i], b.Hi[i]
		if abandonable {
			var rowMin float64
			if i == 0 {
				rowMin = fillRow0Squared(x[0], y, lo, hi, curr)
			} else {
				rowMin = fillRowSquared(x[i], y, lo, hi, prev, prevLo, prevHi, curr)
			}
			cells += hi - lo + 1
			prev, curr = curr, prev
			prevLo, prevHi = lo, hi
			if i < n-1 && rowMin > budget {
				return rowMin, cells, true, nil
			}
			continue
		}
		if i == 0 {
			fillRow0SquaredNoMin(x[0], y, lo, hi, curr)
		} else {
			fillRowSquaredNoMin(x[i], y, lo, hi, prev, prevLo, prevHi, curr)
		}
		cells += hi - lo + 1
		prev, curr = curr, prev
		prevLo, prevHi = lo, hi
	}
	if m-1 < prevLo || m-1 > prevHi {
		return 0, cells, false, errNoWarpPath()
	}
	d := prev[m-1-prevLo]
	if math.IsInf(d, 1) {
		return 0, cells, false, errNoWarpPath()
	}
	return d, cells, false, nil
}

// distanceSquared is the full-grid Distance loop monomorphized for the
// default squared cost, using the same two rolling (m+1)-rows and the
// same comparison order as the generic loop.
func distanceSquared(x, y []float64) float64 {
	m := len(y)
	prev := make([]float64, m+1)
	curr := make([]float64, m+1)
	inf := math.Inf(1)
	for j := 1; j <= m; j++ {
		prev[j] = inf
	}
	for i := 1; i <= len(x); i++ {
		curr[0] = inf
		xi := x[i-1]
		pd := prev[:m] // prev[j-1] for j = 1..m
		pv := prev[1:]
		pv = pv[:m]
		cw := curr[1:]
		cw = cw[:m]
		yd := y[:m]
		h := inf // curr[0]
		for k := range yd {
			best := pd[k] // diagonal
			if v := pv[k]; v < best {
				best = v // vertical
			}
			if h < best {
				best = h // horizontal
			}
			d := xi - yd[k]
			v := best + float64(d*d)
			cw[k] = v
			h = v
		}
		prev, curr = curr, prev
	}
	return prev[m]
}

// subsequenceSquared is the open-begin/open-end subsequence DP
// monomorphized for the default squared cost; same recurrence, comparison
// order and start-pointer tie-breaking as the generic SubsequenceWS loop.
//
//sdtw:hotpath
func subsequenceSquared(q, s []float64, ws *Workspace) SubsequenceMatch {
	n, m := len(q), len(s)
	inf := math.Inf(1)
	prev, curr := ws.rows(m)
	prevStart, currStart := ws.startRows(m)

	q0 := q[0]
	sd := s[:m]
	p0 := prev[:m]
	ps0 := prevStart[:m]
	for j := range sd {
		p0[j] = sq(q0, sd[j])
		ps0[j] = j
	}
	for i := 1; i < n; i++ {
		qi := q[i]
		pd := prev[:m]
		ps := prevStart[:m]
		cd := curr[:m]
		cs := currStart[:m]
		// Column 0 has no diagonal or horizontal predecessor.
		best := pd[0]
		from := ps[0]
		if math.IsInf(best, 1) {
			cd[0], cs[0] = inf, 0
		} else {
			cd[0], cs[0] = best+sq(qi, sd[0]), from
		}
		for j := 1; j < m; j++ {
			best = pd[j] // vertical: advance q only
			from = ps[j]
			if pd[j-1] < best { // diagonal
				best = pd[j-1]
				from = ps[j-1]
			}
			if cd[j-1] < best { // horizontal: advance s only
				best = cd[j-1]
				from = cs[j-1]
			}
			if math.IsInf(best, 1) {
				cd[j] = inf
				cs[j] = j
				continue
			}
			d := qi - sd[j]
			cd[j] = best + float64(d*d)
			cs[j] = from
		}
		prev, curr = curr, prev
		prevStart, currStart = currStart, prevStart
	}
	bestJ := 0
	for j := 1; j < m; j++ {
		if prev[j] < prev[bestJ] {
			bestJ = j
		}
	}
	return SubsequenceMatch{Start: prevStart[bestJ], End: bestJ, Distance: prev[bestJ]}
}
