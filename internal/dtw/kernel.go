package dtw

// The dynamic-programming kernels of the squared point cost (a-b)², the
// one cost this repository computes — with the cost inlined and the band
// intervals read once per row, because per-cell overhead would dominate
// the O(band) dynamic programs the locally relevant constraints buy
// (§2.1.1, §3.4).
//
// The banded kernel (bandedAbandonSquared, behind BandedAbandonCtx, Banded*
// and Distance) fills the band four rows per pass wherever
// four consecutive rows overlap widely enough (fillStripSquared): a cell
// waits on its left neighbour through a minimum and an add, so one row
// alone is one serial chain — and, written as the < cascade, three
// data-dependent branches per cell — while four rows skewed one column
// apart are four independent chains the core overlaps, with a branchless
// builtin min. A band too narrow for a strip, such as the radius-3
// window, fills each row that lies under the row above in one branchless
// loop over the whole row (fillNarrowSquared), and refills a row that
// comes out holding a NaN by the < cascade. Rows that do neither — the
// first row, a leftover of n mod 4, rows around an interval jump, a
// narrow row that jumps ahead or steps back, every row of a wide band
// over an input holding a NaN or an infinity — are filled one at a time
// by fillRowSquared, which is also what fills the ends of a strip's rows
// left and right of the skewed loop. Under a budget the rows of a band
// wide enough for a strip are pruned to the live range of the row above
// (liveRange), strips included. Which rows run how is read off the
// band's own intervals and that range, never set by a caller.
//
// Bit-identity contract: every kernel returns what the row-at-a-time
// reference loops of the tests (reference_test.go) return, bit for bit —
// each cell is still one add of the same two operands, and wherever a
// kernel picks a minimum some other way than the reference's strict <
// cascade, its comment says why the pick is the same. Squared costs round
// through an explicit float64 conversion so the compiler cannot fuse the
// multiply into the following add (FMA contraction on arm64 and ppc64).
// cells is the one result the budgeted kernel and the reference do not
// share: each counts the cells it filled through the abandoning row (not
// the up to three rows of a strip filled behind it), the reference prunes
// to the cell, and a strip — one left bound for its four rows, each row's
// end run against the filled end of the row above — fills that and some
// more, never more than the band. Where no strip can run (non-finite
// inputs, a band under pruneMinWidth, a +Inf budget) the two counts are
// equal. Differential tests in kernel_test.go and the fuzz targets pin
// distance, abandoned flag and cell counts against the reference, and
// oracle_test.go pins both against a textbook full-matrix DP and the live
// ranges read off it, on strip-reaching bands, every abandoning row and
// non-finite inputs.

import (
	"context"
	"math"
)

// sq is the point cost (a-b)². The explicit float64 conversion forces the
// multiply to round before the caller's add, so fused multiply-add cannot
// break bit-identity between the kernels and their references.
func sq(a, b float64) float64 {
	d := a - b
	return float64(d * d)
}

// infBits is the bit pattern of +Inf, the identity of a row minimum.
const infBits = 0x7ff << 52

// Row buffers of the squared-cost banded kernels are padded: the buffer of
// a row with interval [lo, hi] holds cells lo-1..hi+1 (cell j at index
// j-lo+1) and the two end cells are +Inf. A predecessor just outside the
// previous row's interval, or left of this row's, is then read like any
// other and loses every strict < exactly as the reference loop's "no such
// predecessor" does, so a row needs no per-cell membership checks. Row 0
// gets its free origin the same way, from originRow.
//
// Row minima are tracked as the minimum over math.Float64bits patterns, a
// compare and a conditional move off the floating-point dependency chain
// where v < rowMin is a data-dependent branch. It is the same value:
// accumulated costs are non-negative (sums of squares, never -0), and
// non-negative floats order as their bit patterns do; a NaN (only
// non-finite inputs make one) has a pattern above +Inf's whatever its
// sign, so it is skipped exactly as v < rowMin skips it.

// originRow is the padded buffer of the virtual row above row 0: the one
// cell (-1,-1), cost 0, the diagonal predecessor of the origin (0,0).
// Its interval is [-1, -1].
func originRow() []float64 { return []float64{math.Inf(1), 0, math.Inf(1)} }

// accumulateSquared fills a run of cells whose only predecessor is the
// horizontal one, cw[k+1] from cw[k] — a running accumulation carried in
// a register. The predecessor enters as the reference loop takes it, on a
// strict < against +Inf, so a NaN to the left restarts the run at +Inf
// instead of spreading. It returns the bits of the run's minimum.
//
//sdtw:hotpath
func accumulateSquared(xi float64, yd, cw []float64) uint64 {
	rowMin := uint64(infBits)
	h := cw[0]
	cw = cw[1:]
	cw = cw[:len(yd)]
	for k := range yd {
		best := math.Inf(1)
		if h < best {
			best = h
		}
		d := xi - yd[k]
		h = best + float64(d*d)
		cw[k] = h
		rowMin = min(rowMin, math.Float64bits(h))
	}
	return rowMin
}

// fillRowSquared fills cells from..to of one band row of the squared-cost
// dynamic program into the padded buffer curr (first column lo), given
// the previous row's padded buffer prev and interval [prevLo, prevHi]. It
// writes the +Inf pad left of the row when it starts it (from == lo) and
// one right of the last cell it fills, and returns the bits of the
// minimum over the cells it filled and the column of the last one. It is
// the whole of a per-row row (from = lo, to = hi) and the head and tail
// filler of a strip row (see fillStripSquared).
//
// Columns prevLo..prevHi+1 have a diagonal or vertical predecessor and
// run the three-way loop over buffers re-sliced to the segment width, so
// the compiler proves the indexing in range once; the columns before and
// after have the horizontal predecessor only. The run after them stops
// short of to at the first cell whose left neighbour exceeds cut: nothing
// right of it can come in at or under a budget of cut, and +Inf fills the
// run whole — a NaN neighbour exceeds nothing, and the cell after it,
// restarted at +Inf, ends the run instead. The comparison order
// (diagonal, then vertical on strict <, then horizontal on strict <) is
// exactly the reference loop's, so a NaN or infinite input behaves as it
// does there.
//
//sdtw:hotpath
func fillRowSquared(xi float64, y []float64, lo int, prev []float64, prevLo, prevHi int, curr []float64, from, to int, cut float64) (uint64, int) {
	inf := math.Inf(1)
	rowMin := uint64(infBits)
	if from == lo {
		curr[0] = inf
	}
	curr[to-lo+2] = inf
	j := from
	if end := min(to, prevLo-1); j <= end {
		rowMin = accumulateSquared(xi, y[j:end+1], curr[j-lo:])
		j = end + 1
	}
	if end := min(to, prevHi+1); j <= end {
		w := end - j + 1
		yd := y[j : j+w : j+w]
		pd := prev[j-prevLo:] // cell j-1
		pd = pd[:w]
		pv := prev[j-prevLo+1:] // cell j
		pv = pv[:w]
		cw := curr[j-lo+1:]
		cw = cw[:w]
		h := curr[j-lo]
		for k := range yd {
			best := pd[k]
			if v := pv[k]; v < best {
				best = v
			}
			if h < best {
				best = h
			}
			d := xi - yd[k]
			h = best + float64(d*d)
			cw[k] = h
			rowMin = min(rowMin, math.Float64bits(h))
		}
		j += w
	}
	if j <= to {
		yd := y[j : to+1]
		cw := curr[j-lo:]
		h := cw[0]
		cw = cw[1:]
		cw = cw[:len(yd)]
		for k := range yd {
			if h > cut {
				to = j + k - 1
				cw[k] = inf
				break
			}
			best := inf
			if h < best {
				best = h
			}
			d := xi - yd[k]
			h = best + float64(d*d)
			cw[k] = h
			rowMin = min(rowMin, math.Float64bits(h))
		}
	}
	return rowMin, to
}

// fillNarrowSquared fills the whole of band row [lo, hi] into the padded
// buffer curr, given the padded buffer prev of the row above, whose first
// column is prevLo. The row must lie where every cell's diagonal and
// vertical predecessors are cells of prev's buffer, pads included:
// lo >= prevLo and hi <= prevHi+1, which every row of a square
// Sakoe-Chiba band after row 0 meets. It returns the bits of the row's
// minimum and whether the row holds no NaN.
//
// Each cell is one minimum and one add on the chain through its left
// neighbour, with the builtin min (branchless) where fillRowSquared runs
// the < cascade, its segment split and its cut test. On costs that are
// not NaN the two pick the same operand (see fillStripSquared); where an
// operand is NaN the cascade may skip it and min does not, so the cell
// is NaN either way or here only. min passes a NaN on to every cell
// right of it, so the row holds one exactly when its last cell is NaN;
// a row without is the one fillRowSquared fills, bit for bit, and any
// other must be filled again by it.
//
//sdtw:hotpath
func fillNarrowSquared(xi float64, y []float64, lo, hi int, prev []float64, prevLo int, curr []float64) (rowMin uint64, ok bool) {
	w := hi - lo + 1
	yd := y[lo : hi+1 : hi+1]
	pd := prev[lo-prevLo:] // cell lo-1 of the row above: the diagonal
	pd = pd[:w]
	pv := prev[lo-prevLo+1:] // cell lo: the vertical
	pv = pv[:w]
	cw := curr[: w+2 : w+2]
	inf := math.Inf(1)
	cw[0], cw[w+1] = inf, inf
	cw = cw[1 : w+1]
	rowMin = infBits
	h := inf
	for k := range yd {
		d := xi - yd[k]
		h = min(min(pd[k], pv[k]), h) + float64(d*d)
		cw[k] = h
		rowMin = min(rowMin, math.Float64bits(h))
	}
	return rowMin, h == h
}

// liveRange narrows a filled row — padded buffer row, cells lo..hi, at
// least one of them within budget — to its live range, the first and the
// last cell within budget, and returns it as a padded buffer of its own:
// the two cells around the range become its +Inf pads, so the rows below
// read the dead cells beyond them as the band's edge. A cell is dead
// unless it compares <= budget, which a NaN never does. The scan reads
// the dead cells it drops and the two live ones it stops at.
//
//sdtw:hotpath
func liveRange(row []float64, lo, hi int, budget float64) (live []float64, first, last int) {
	first, last = lo, hi
	for !(row[first-lo+1] <= budget) {
		first++
	}
	for !(row[last-lo+1] <= budget) {
		last--
	}
	live = row[first-lo:]
	live[0], live[last-first+2] = math.Inf(1), math.Inf(1)
	return live, first, last
}

// stripRows is how many consecutive band rows fillStripSquared advances
// per pass. A cell's cost waits on its left neighbour through min and
// add, about 13 cycles on amd64 (the builtin min is MINSD·MINSD·POR), so
// a single row fills one cell per 13 cycles however wide the machine is.
// Rows skewed one column apart share nothing within a step: two rows
// still leave the chain exposed (1.25–1.5× measured on Trace 1024 bands),
// four hide it (2.0–2.3×), and more would only spill the seven carried
// values out of registers.
const stripRows = 4

// stripMinSteps is the shortest joint range worth a strip: below it the
// head and tail calls around the joint loop cost more than the loop saves.
const stripMinSteps = 8

// pruneMinWidth is the widest-row width from which a budgeted dynamic
// program tracks the live column range (see bandedAbandonSquared): the
// narrowest band that can hold a strip. A band under it — the radius-3
// window — has rows of a handful of cells, where finding the range costs
// more than the few cells it would save, and is filled in whole rows,
// by fillNarrowSquared wherever a row lies under the row above.
const pruneMinWidth = stripMinSteps + stripRows

// stripRange reports whether rows i..i+stripRows-1 of b run as a strip
// and over which steps s..e they advance together: at step t row r fills
// column t-r, and that cell must have all three predecessors inside the
// band, i.e. lie in [max(Lo[r-1], Lo[r])+1, min(Hi[r-1], Hi[r])] (row -1
// being the row above the strip, interval [prevLo, prevHi] — its live
// range under a budget, so the joint range ends at its last live cell).
// No row starts left of floor, the first live column of the row above
// under a budget and 0 without one. Row 0 never joins a strip: the
// virtual row above it leaves it no such cell.
func stripRange(b Band, i, floor, prevLo, prevHi int) (s, e int, ok bool) {
	if i+stripRows > len(b.Lo) {
		return 0, 0, false
	}
	s, e = 0, b.M
	for r := 0; r < stripRows; r++ {
		lo, hi := max(b.Lo[i+r], floor), b.Hi[i+r]
		s = max(s, max(prevLo, lo)+1+r)
		e = min(e, min(prevHi, hi)+r)
		prevLo, prevHi = lo, hi
	}
	return s, e, e-s+1 >= stripMinSteps
}

// fillStripSquared fills band rows i..i+3 of the squared-cost dynamic
// program together, given their joint steps s..e and the floor they were
// found under (see stripRange) and the row above them in prev. It stores
// how many cells of each row it filled, from max(Lo, floor) on, in
// filled, and returns the bits of the last row's minimum, the only one
// the caller needs while no row abandons (see bandedAbandonSquared).
//
// Over the joint steps the rows advance skewed one column apart: at step
// t row r fills column t-r. Row r's diagonal and vertical predecessors
// are then row r-1's outputs of the two previous steps and its horizontal
// predecessor its own last output, all carried in registers; only row 0
// loads prev. The four cells of a step depend on nothing computed within
// it, so their min/add latencies overlap. fillRowSquared fills what the
// parallelogram leaves of each row: the head up to column s-r-1 before
// the loop and the tail from e-r+1 after it — each pass top row first,
// so a row's predecessors are filled before it reads them. A tail runs
// against the filled end of the row above, not its band end, and on
// alone only while its left neighbour is within cut: under a budget the
// joint range ends at the last live cell of the row above the strip, and
// each row reaches one column further than the row above it did plus
// whatever stays within the budget from there.
//
// Bit-identity with the < cascade of fillRowSquared: every accumulated
// cost is a non-negative, non-NaN float here — a sum of rounded squares
// of finite differences, +Inf at worst, never -0 — and on those the
// builtin min (branchless, where the cascade is two data-dependent
// branches) returns the operand the cascade selects. The caller keeps
// inputs with a NaN or an infinity off this path. Each cell still
// computes best + float64(d*d) on the same operands.
//
//sdtw:hotpath
func fillStripSquared(x, y []float64, b Band, i, floor, s, e int, prev []float64, prevLo, prevHi int, rows *[stripRows][]float64, cut float64, filled *[stripRows]int) uint64 {
	var lo [stripRows]int
	for r := range lo {
		lo[r] = max(b.Lo[i+r], floor)
	}
	hi := b.Hi[i : i+stripRows]
	x = x[i : i+stripRows]
	var lastMin, tailMin uint64 // of the row filled last: the strip's last, after each pass
	p, pl, ph := prev, prevLo, prevHi
	for r := range rows {
		lastMin, _ = fillRowSquared(x[r], y, lo[r], p, pl, ph, rows[r], lo[r], s-r-1, math.Inf(1))
		p, pl, ph = rows[r], lo[r], hi[r]
	}

	w := e - s + 1
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	yv := y[s-3 : e+1] // row r at step s+k reads yv[k+3-r]
	pv := prev[s-prevLo:]
	pv = pv[:w+1] // diagonal pv[k], vertical pv[k+1]
	c0 := rows[0][s-lo[0]+1:]
	c0 = c0[:w]
	c1 := rows[1][s-lo[1]:]
	c1 = c1[:w]
	c2 := rows[2][s-lo[2]-1:]
	c2 = c2[:w]
	c3 := rows[3][s-lo[3]-2:]
	c3 = c3[:w]
	// a_r is row r's last output, b_r the one before.
	a0, b0 := rows[0][s-lo[0]], rows[0][s-lo[0]-1]
	a1, b1 := rows[1][s-lo[1]-1], rows[1][s-lo[1]-2]
	a2, b2 := rows[2][s-lo[2]-2], rows[2][s-lo[2]-3]
	a3 := rows[3][s-lo[3]-3]
	for k := 0; k < w; k++ {
		yk := yv[k : k+4 : k+4] // one bounds check for the four loads
		pk := pv[k : k+2 : k+2]
		d := x0 - yk[3]
		n0 := min(pk[0], pk[1], a0) + float64(d*d)
		d = x1 - yk[2]
		n1 := min(b0, a0, a1) + float64(d*d)
		d = x2 - yk[1]
		n2 := min(b1, a1, a2) + float64(d*d)
		d = x3 - yk[0]
		n3 := min(b2, a2, a3) + float64(d*d)
		c0[k], c1[k], c2[k], c3[k] = n0, n1, n2, n3
		lastMin = min(lastMin, math.Float64bits(n3))
		b0, b1, b2 = a0, a1, a2
		a0, a1, a2, a3 = n0, n1, n2, n3
	}

	p, pl, ph = prev, prevLo, prevHi
	for r := range rows {
		var end int
		tailMin, end = fillRowSquared(x[r], y, lo[r], p, pl, ph, rows[r], e-r+1, hi[r], cut)
		filled[r] = end - lo[r] + 1
		p, pl, ph = rows[r], lo[r], end
	}
	return min(lastMin, tailMin)
}

// rowMinimum returns the smallest accumulated cost among cells, +Inf if
// it holds none (see the note on bit patterns above).
func rowMinimum(cells []float64) float64 {
	rowMin := uint64(infBits)
	for _, v := range cells {
		rowMin = min(rowMin, math.Float64bits(v))
	}
	return math.Float64frombits(rowMin)
}

// finite reports whether v holds no NaN and no infinity.
func finite(v []float64) bool {
	for _, f := range v {
		if math.Float64bits(f)&infBits == infBits {
			return false
		}
	}
	return true
}

// bandedAbandonSquared is the dynamic program behind BandedAbandonCtx: the
// row-at-a-time reference's live ranges row to row, abandonment points and
// comparison results, with four rows advanced per pass wherever the band
// lets them (fillStripSquared). Whether a
// group of rows runs as a strip is decided from the band's own intervals
// and, under a budget, the live range above them; a band too narrow for
// any strip (the radius-3 window) never even scans its inputs for the
// non-finite values the strip cannot take, nor its rows for their live
// range: its own row loop (fillNarrowSquared) finds a NaN in the row it
// made. Inputs were validated by the caller, which passes the cell count
// of the band's widest row.
//
// Under a budget a wide band's rows are pruned (Herrmann & Webb's early
// abandoning and pruning): prev is the live range of the row above, the
// cells between its first and last within budget, and a row starts no
// further left than that range does — the cells there have a dead
// diagonal, a dead vertical and, by induction from the row's start, a
// dead horizontal predecessor — runs the three-way recurrence one column
// past its end, and on from there, where only the horizontal predecessor
// is left, until that one is dead too. The first live column never
// decreases down the grid, so a strip holds the one above it for its four
// rows and only its last row is narrowed, which makes the strip coarser
// than the per-row rule, never wrong: accumulated costs only grow along a
// path, so a cell within budget has a predecessor within budget, filled
// and exact by induction, and gets the bits the whole band would give it;
// a dead cell may cost more than it would there, and is dead either way.
func bandedAbandonSquared(ctx context.Context, x, y []float64, b Band, maxWidth int, budget float64, ws *Workspace) (float64, int, bool, error) {
	n, m := len(x), len(y)
	if ws == nil {
		ws = &Workspace{}
	}
	// Five padded row buffers: the strip's four and the row above it.
	width := maxWidth + 2
	buf := ws.floats((stripRows + 1) * width)
	var rows [stripRows][]float64
	for r := range rows {
		rows[r] = buf[r*width : (r+1)*width : (r+1)*width]
	}
	// prev is the row above as the rows below read it: all of prevBuf, or
	// under pruning the part of it that holds the live range.
	prevBuf := buf[stripRows*width:]
	copy(prevBuf, originRow())
	prev, prevLo, prevHi := prevBuf, -1, -1
	cells := 0
	// A +Inf or NaN budget is exceeded by nothing: no row abandons and
	// nothing is pruned.
	bounded := budget < math.Inf(1)
	over := overBudget(budget)

	if maxWidth < pruneMinWidth {
		// Rows narrower than a joint range plus the skew hold no strip
		// (unless the band drifts left, which narrow bands are not worth
		// checking for) and too few cells to prune: whole rows, one at a
		// time, abandoning on the row minimum, and none of the strip's or
		// the live range's state. A row that lies under the row above —
		// every row after row 0 of a square Sakoe-Chiba band — is filled
		// by fillNarrowSquared, the others (row 0, a row that jumps ahead
		// or steps back, as the stretched diagonal of an n×m grid does) by
		// fillRowSquared. No input is scanned for NaN beforehand: a row
		// fillNarrowSquared fills with one is filled again by
		// fillRowSquared from the same row above, exact by induction.
		for i := 0; i < n; i++ {
			if ctx != nil && i%cancelCheckRows == 0 {
				if err := ctx.Err(); err != nil {
					return 0, cells, false, err
				}
			}
			lo, hi := b.Lo[i], b.Hi[i]
			var rowMin uint64
			filled := false
			if lo >= prevLo && hi <= prevHi+1 {
				rowMin, filled = fillNarrowSquared(x[i], y, lo, hi, prev, prevLo, rows[0])
			}
			if !filled {
				rowMin, _ = fillRowSquared(x[i], y, lo, prev, prevLo, prevHi, rows[0], lo, hi, math.Inf(1))
			}
			cells += hi - lo + 1
			if math.Float64frombits(rowMin) > budget {
				return over, cells, true, nil
			}
			prev, rows[0] = rows[0], prev
			prevLo, prevHi = lo, hi
		}
	} else {
		strips := finite(x) && finite(y)
		polled := -cancelCheckRows
		for i, k, tryAt := 0, 0, 0; i < n; i += k {
			// Under a budget no row starts left of the live range above it.
			floor := 0
			if bounded {
				floor = prevLo
			}
			// Where rows do not make a strip, the next few are not asked: a
			// band that stays just too narrow would pay for the question on
			// every row.
			var s, e int
			k = 1
			if strips && i >= tryAt {
				var ok bool
				if s, e, ok = stripRange(b, i, floor, prevLo, prevHi); ok {
					k = stripRows
				} else {
					tryAt = i + stripRows
				}
			}
			// Poll before the rows that would put more than cancelCheckRows
			// between two polls: every cancelCheckRows-th single row, every
			// other strip.
			if ctx != nil && i+k > polled+cancelCheckRows {
				polled = i
				if err := ctx.Err(); err != nil {
					return 0, cells, false, err
				}
			}
			var lo, hi int // the cells of the last row filled
			if k == 1 {
				lo, hi = max(b.Lo[i], floor), b.Hi[i]
				// A band may step back left of the live range (Normalize does
				// not promise a non-decreasing Hi), or start right of the
				// column after it: no cell of the row has a live predecessor.
				if bounded && lo > min(hi, prevHi+1) {
					return over, cells, true, nil
				}
				var rowMin uint64
				rowMin, hi = fillRowSquared(x[i], y, lo, prev, prevLo, prevHi, rows[0], lo, hi, budget)
				cells += hi - lo + 1
				if math.Float64frombits(rowMin) > budget {
					return over, cells, true, nil
				}
				prevBuf, rows[0] = rows[0], prevBuf
			} else {
				// Row minima never decrease down the grid — a cell is a cell of
				// the row above, or one to its left, plus a non-negative cost, and
				// rounding is monotone — so a row of the strip can only exceed the
				// budget if the last one does, the only one whose minimum the
				// strip tracks. Then, rarely, the rows' minima are read off their
				// buffers. The rows filled behind an abandoning row are not
				// counted.
				var filled [stripRows]int
				lastMin := fillStripSquared(x, y, b, i, floor, s, e, prev, prevLo, prevHi, &rows, budget, &filled)
				exceeded := math.Float64frombits(lastMin) > budget
				for r := range rows {
					cells += filled[r]
					if exceeded && rowMinimum(rows[r][1:filled[r]+1]) > budget {
						return over, cells, true, nil
					}
				}
				const last = stripRows - 1
				lo = max(b.Lo[i+last], floor)
				hi = lo + filled[last] - 1
				prevBuf, rows[last] = rows[last], prevBuf
			}
			prev, prevLo, prevHi = prevBuf, lo, hi
			if bounded {
				prev, prevLo, prevHi = liveRange(prevBuf, lo, hi, budget)
			}
		}
	}

	if m-1 < b.Lo[n-1] || m-1 > b.Hi[n-1] {
		return 0, cells, false, errNoWarpPath()
	}
	// A corner cell pruned away or left over budget is a distance over
	// budget: the last row has live cells, and none of them ends a path.
	if m-1 > prevHi {
		return over, cells, true, nil
	}
	d := prev[m-prevLo]
	if bounded && !(d <= budget) {
		return over, cells, true, nil
	}
	if math.IsInf(d, 1) {
		return 0, cells, false, errNoWarpPath()
	}
	return d, cells, false, nil
}

// subsequenceSquared is the open-begin/open-end subsequence DP behind
// SubsequenceWS: the recurrence, comparison order and start-pointer
// tie-breaking of Spring's column advance, one row of the grid at a time.
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
