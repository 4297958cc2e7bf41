package match

import (
	"cmp"
	"slices"
	"sort"
)

// boundaryList is an ordered multiset of committed boundary time points on
// one series. Insertion ranks are computed against the committed points;
// two candidate points of the same pair are ranked jointly.
type boundaryList struct {
	points []int // sorted ascending
}

// ranks returns the insertion ranks of st and end (st <= end) against the
// committed points: rank(p) is the number of committed points strictly
// smaller than p, except that committed points equal to p do not increase
// the rank (the paper's tie exception: equal time values share rank).
// rankEnd additionally counts st itself when st < end, because both points
// of a pair are inserted together.
func (bl *boundaryList) ranks(st, end int) (rankSt, rankEnd int) {
	rankSt = sort.Search(len(bl.points), func(i int) bool { return bl.points[i] >= st })
	rankEnd = sort.Search(len(bl.points), func(i int) bool { return bl.points[i] >= end })
	if st < end {
		rankEnd++ // st precedes end in the combined ordering
	}
	return rankSt, rankEnd
}

// insert commits st and end into the list.
func (bl *boundaryList) insert(st, end int) {
	bl.points = append(bl.points, st, end)
	slices.Sort(bl.points)
}

// pruneInconsistent walks pairs in the given order (the caller sorts by
// descending µcomb) and keeps a pair only when (a) inserting its scope
// boundaries preserves identical boundary ordering in both series
// (§3.2.2 step 2) and (b) the local time stretch the boundaries imply
// against their committed neighbours stays within maxBoundarySlope. The
// kept pairs are returned in walk order, in workspace scratch.
func (ws *Workspace) pruneInconsistent(pairs []Pair, nx, ny int) []Pair {
	blX, blY := &ws.blX, &ws.blY
	blX.points, blY.points = blX.points[:0], blY.points[:0]
	// committed holds the corresponding boundary points of both series,
	// kept sorted by X position, with the two virtual grid corners.
	committed := append(ws.committed[:0], bpoint{0, 0}, bpoint{nx - 1, ny - 1})
	kept := ws.kept[:0]
	for _, p := range pairs {
		st1, end1 := p.FI.Start(nx), p.FI.End(nx)
		st2, end2 := p.FJ.Start(ny), p.FJ.End(ny)
		if st1 > end1 || st2 > end2 {
			continue // degenerate scope; cannot happen for valid features
		}
		rs1, re1 := blX.ranks(st1, end1)
		rs2, re2 := blY.ranks(st2, end2)
		if rs1 != rs2 || re1 != re2 {
			continue // would reorder scope boundaries across the series
		}
		if !ws.slopesOK(committed, bpoint{st1, st2}, bpoint{end1, end2}) {
			continue // implies an implausible local stretch
		}
		blX.insert(st1, end1)
		blY.insert(st2, end2)
		committed = insertBPoint(committed, bpoint{st1, st2})
		committed = insertBPoint(committed, bpoint{end1, end2})
		kept = append(kept, p)
	}
	ws.committed, ws.kept = committed, kept
	return kept
}

// bpoint is a pair of corresponding boundary positions (x in X, y in Y).
type bpoint struct{ x, y int }

// insertBPoint inserts p into the x-sorted committed list.
func insertBPoint(committed []bpoint, p bpoint) []bpoint {
	i := sort.Search(len(committed), func(k int) bool { return committed[k].x >= p.x })
	committed = append(committed, bpoint{})
	copy(committed[i+1:], committed[i:])
	committed[i] = p
	return committed
}

// slopesOK checks that adding the candidate boundary points keeps every
// implied segment stretch within maxBoundarySlope. Segment stretch is
// measured on +1-smoothed deltas so coincident boundaries (empty
// intervals, which §3.3.2 explicitly tolerates) do not divide by zero.
func (ws *Workspace) slopesOK(committed []bpoint, st, end bpoint) bool {
	pts := insertBPoint(append(ws.trial[:0], committed...), st)
	pts = insertBPoint(pts, end)
	ws.trial = pts
	for k := 1; k < len(pts); k++ {
		dx := float64(pts[k].x-pts[k-1].x) + 1
		dy := float64(pts[k].y-pts[k-1].y) + 1
		if dy < 0 {
			return false // crossing in Y; the rank test usually catches this first
		}
		slope := dy / dx
		if slope > maxBoundarySlope || slope < 1.0/maxBoundarySlope {
			return false
		}
	}
	return true
}

// commitBoundaries flattens the kept pairs' scope boundaries into the two
// corresponding, strictly sorted boundary lists that partition the series
// into intervals (paper Fig 9). Boundary k of X corresponds to boundary k
// of Y by construction of the rank-consistency test. Duplicate positions
// (coincident boundaries) are collapsed pairwise so both lists stay equal
// length; boundaries at the extreme endpoints are dropped since the
// implicit first/last intervals already start/end there.
func (ws *Workspace) commitBoundaries(kept []Pair, nx, ny int) (bx, by []int) {
	pts := ws.bounds[:0]
	for _, p := range kept {
		pts = append(pts, bpoint{p.FI.Start(nx), p.FJ.Start(ny)})
		pts = append(pts, bpoint{p.FI.End(nx), p.FJ.End(ny)})
	}
	ws.bounds = pts
	// The rank-consistency invariant makes sorting by x equivalent to
	// sorting by y (no crossings), so a single sort yields corresponding
	// orders. Ties broken by y to keep the sort deterministic.
	slices.SortFunc(pts, func(a, b bpoint) int {
		if a.x != b.x {
			return cmp.Compare(a.x, b.x)
		}
		return cmp.Compare(a.y, b.y)
	})
	bx, by = make([]int, 0, len(pts)), make([]int, 0, len(pts))
	for _, p := range pts {
		if p.x <= 0 || p.x >= nx-1 || p.y <= 0 || p.y >= ny-1 {
			continue
		}
		if len(bx) > 0 && bx[len(bx)-1] == p.x && by[len(by)-1] == p.y {
			continue // exact duplicate boundary
		}
		// Enforce strict monotonicity in both coordinates; coincident
		// positions in one series with distinct partners would create
		// zero-length intervals inconsistent between the series, so the
		// later (lower-priority) boundary is skipped.
		if len(bx) > 0 && (p.x <= bx[len(bx)-1] || p.y <= by[len(by)-1]) {
			continue
		}
		bx = append(bx, p.x)
		by = append(by, p.y)
	}
	if len(bx) == 0 {
		return nil, nil
	}
	return bx, by
}
