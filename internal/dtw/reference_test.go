package dtw

import (
	"math"
)

// The row-at-a-time references the kernels are held to (kernel.go's
// bit-identity contract): the same recurrences written cell by cell, with
// explicit predecessor membership checks and the strict < cascade instead
// of padded buffers, skewed strips and builtin min. BandedGeneric is
// exported for the external oracle suite (oracle_test.go), like the case
// generators in stripcases_test.go.

// BandedGeneric is the budgeted banded dynamic program one row at a time,
// pruned by BandedAbandonWS's rule to the cell: row i starts at the first
// live column of row i-1 (or Lo[i]) and runs through the column after its
// last live one, and on from there only while the cell to the left is
// within budget. It is the reference for the banded kernel's distance,
// abandoned flag and partial cost, and — being the only loop that prunes
// to the cell — the lower end of its cell count. Its cell count equals the
// kernel's wherever no strip can run, which makes it the whole reference
// on non-finite inputs.
func BandedGeneric(x, y []float64, b Band, budget float64, ws *Workspace) (float64, int, bool, error) {
	if _, err := checkInputs(x, y, b); err != nil {
		return 0, 0, false, err
	}
	n, m := len(x), len(y)
	inf := math.Inf(1)
	// Band-compact rolling rows: row buffers hold only the band interval.
	// Reads into the previous row are bounds-checked against its interval
	// instead of padding the arrays with infinities.
	maxWidth := b.maxWidth()
	if ws == nil {
		ws = &Workspace{}
	}
	prev, curr := ws.rows(maxWidth)
	// The previous row: prev[0] is column prevBase, and [prevLo, prevHi]
	// the cells the next row may read — the filled ones, or under pruning
	// the live range among them; empty before row 0.
	prevBase, prevLo, prevHi := 0, 0, -1
	bounded := budget < inf // a +Inf or NaN budget is exceeded by nothing
	prune := bounded && maxWidth >= pruneMinWidth
	over := overBudget(budget)
	cells := 0
	for i := 0; i < n; i++ {
		lo, hi := b.Lo[i], b.Hi[i]
		if prune {
			lo = max(lo, prevLo)
		}
		xi := x[i]
		rowMin := inf
		j := lo
		for ; j <= hi; j++ {
			// Past the column after the previous row's last live cell only
			// the horizontal predecessor is left, and right of a dead one
			// the rest of the row is dead; a row that starts there — the
			// band stepped back or ahead of the live range — has no live
			// predecessor at all.
			if prune && j > prevHi+1 && (j == lo || curr[j-1-lo] > budget) {
				break
			}
			var best float64
			if i == 0 && j == 0 {
				best = 0
			} else {
				best = inf
				if j-1 >= prevLo && j-1 <= prevHi { // diagonal (i-1, j-1)
					best = prev[j-1-prevBase]
				}
				if j >= prevLo && j <= prevHi { // vertical (i-1, j)
					if v := prev[j-prevBase]; v < best {
						best = v
					}
				}
				if j-1 >= lo { // horizontal (i, j-1)
					if v := curr[j-1-lo]; v < best {
						best = v
					}
				}
			}
			d := xi - y[j]
			v := best + float64(d*d)
			curr[j-lo] = v
			if v < rowMin {
				rowMin = v
			}
		}
		cells += j - lo
		if rowMin > budget {
			return over, cells, true, nil
		}
		prev, curr = curr, prev
		prevBase, prevLo, prevHi = lo, lo, j-1
		if prune {
			// rowMin is within budget, so both scans stop inside the row. A
			// cell is dead unless it compares <= budget, which a NaN never
			// does.
			for !(prev[prevLo-prevBase] <= budget) {
				prevLo++
			}
			for !(prev[prevHi-prevBase] <= budget) {
				prevHi--
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
	d := prev[m-1-prevBase]
	if bounded && !(d <= budget) {
		return over, cells, true, nil
	}
	if math.IsInf(d, 1) {
		return 0, cells, false, errNoWarpPath()
	}
	return d, cells, false, nil
}

// maxWidth returns the cell count of the band's widest row.
func (b Band) maxWidth() int {
	w := 0
	for i := range b.Lo {
		w = max(w, b.Hi[i]-b.Lo[i]+1)
	}
	return w
}

// appendGeneric is Append over advanceGeneric, the reference column
// advance.
func (sp *Spring) appendGeneric(v float64) (SubsequenceMatch, bool) {
	sp.advanceGeneric(v)
	return sp.confirm()
}

// advanceGeneric is advanceSquared cell by cell: every predecessor is
// re-read from the column instead of carried in registers, with the same
// comparison order (vertical, then diagonal, then horizontal, each on
// strict <) and the same start-pointer tie-breaks. Like advanceSquared it
// fills every row, so every row may be live.
func (sp *Spring) advanceGeneric(v float64) {
	n := len(sp.q)
	d, s := sp.d, sp.s
	t := sp.t
	inf := math.Inf(1)
	sp.hi = n - 1

	diagD, diagS := d[0], s[0]
	if t < sp.nextStart {
		d[0], s[0] = inf, t
	} else {
		dd := sp.q[0] - v
		d[0], s[0] = float64(dd*dd), t
	}
	for i := 1; i < n; i++ {
		best, from := d[i-1], s[i-1] // vertical: advance q only (this column)
		if diagD < best {            // diagonal (previous column)
			best, from = diagD, diagS
		}
		if d[i] < best { // horizontal: advance stream only (previous column)
			best, from = d[i], s[i]
		}
		diagD, diagS = d[i], s[i]
		if math.IsInf(best, 1) {
			d[i], s[i] = inf, t
			continue
		}
		dd := sp.q[i] - v
		d[i], s[i] = best+float64(dd*dd), from
	}
}
