package dtw

import (
	"context"
	"fmt"
	"math"

	"sdtw/internal/series"
)

// Step is one move of a warp path on the DTW grid, expressed as the
// coordinates (I, J) of the visited cell (0-based: cell (i,j) aligns x[i]
// with y[j]).
type Step struct {
	I, J int
}

// Path is a warp path: a sequence of grid cells from (0,0) to (N-1,M-1)
// advancing by (1,0), (0,1) or (1,1) at each step.
type Path []Step

// Validate reports an error if the path violates the warp-path definition
// of §2.1.1 for an n-by-m grid: boundary conditions, monotonicity, and
// unit-step continuity.
func (p Path) Validate(n, m int) error {
	if len(p) == 0 {
		return fmt.Errorf("dtw: empty path")
	}
	if p[0].I != 0 || p[0].J != 0 {
		return fmt.Errorf("dtw: path starts at (%d,%d), want (0,0)", p[0].I, p[0].J)
	}
	last := p[len(p)-1]
	if last.I != n-1 || last.J != m-1 {
		return fmt.Errorf("dtw: path ends at (%d,%d), want (%d,%d)", last.I, last.J, n-1, m-1)
	}
	// A monotone unit-step path from (0,0) to (n-1,m-1) takes at most
	// (n-1)+(m-1) steps after the origin cell, so n+m-1 cells total.
	if len(p) < max(n, m) || len(p) > n+m-1 {
		return fmt.Errorf("dtw: path length %d outside [max(N,M)=%d, N+M-1=%d]", len(p), max(n, m), n+m-1)
	}
	for k := 1; k < len(p); k++ {
		di := p[k].I - p[k-1].I
		dj := p[k].J - p[k-1].J
		if di < 0 || dj < 0 || di > 1 || dj > 1 || (di == 0 && dj == 0) {
			return fmt.Errorf("dtw: illegal step (%d,%d)->(%d,%d) at position %d",
				p[k-1].I, p[k-1].J, p[k].I, p[k].J, k)
		}
	}
	return nil
}

// Cost accumulates the path's total alignment cost over x and y using dist.
func (p Path) Cost(x, y []float64, dist series.PointDistance) float64 {
	if dist == nil {
		dist = series.SquaredDistance
	}
	total := 0.0
	for _, s := range p {
		total += dist(x[s.I], y[s.J])
	}
	return total
}

// Distance computes the exact DTW distance between x and y with the full
// O(NM) grid using rolling rows (O(M) memory). dist nil defaults to
// squared point distance, which runs the banded squared kernel over the
// full band (see kernel.go).
func Distance(x, y []float64, dist series.PointDistance) (float64, error) {
	if len(x) == 0 || len(y) == 0 {
		return 0, fmt.Errorf("dtw: empty input (len(x)=%d len(y)=%d): %w", len(x), len(y), series.ErrEmptySeries)
	}
	if useSquaredKernel(dist) {
		// Over the full band the kernel's one failure is a grid whose every
		// path costs +Inf (infinite or overflowing inputs), which the
		// full-grid loop below reports as that distance.
		d, _, _, err := bandedAbandonSquared(nil, x, y, FullBand(len(x), len(y)), math.Inf(1), nil)
		if err != nil {
			d = math.Inf(1)
		}
		return d, nil
	}
	if dist == nil {
		dist = series.SquaredDistance
	}
	m := len(y)
	prev := make([]float64, m+1)
	curr := make([]float64, m+1)
	for j := 1; j <= m; j++ {
		prev[j] = math.Inf(1)
	}
	for i := 1; i <= len(x); i++ {
		curr[0] = math.Inf(1)
		xi := x[i-1]
		for j := 1; j <= m; j++ {
			best := prev[j-1] // diagonal
			if prev[j] < best {
				best = prev[j] // vertical (advance x only)
			}
			if curr[j-1] < best {
				best = curr[j-1] // horizontal (advance y only)
			}
			curr[j] = best + dist(xi, y[j-1])
		}
		prev, curr = curr, prev
	}
	return prev[m], nil
}

// PathResult bundles a DTW distance with the optimal warp path that
// realises it and the number of grid cells evaluated.
type PathResult struct {
	Distance float64
	Path     Path
	Cells    int
}

// DistanceWithPath computes the exact DTW distance and recovers the optimal
// warp path by backtracking over the full grid (O(NM) memory).
func DistanceWithPath(x, y []float64, dist series.PointDistance) (PathResult, error) {
	if len(x) == 0 || len(y) == 0 {
		return PathResult{}, fmt.Errorf("dtw: empty input (len(x)=%d len(y)=%d): %w", len(x), len(y), series.ErrEmptySeries)
	}
	return BandedWithPath(x, y, FullBand(len(x), len(y)), dist)
}

// Workspace holds reusable row buffers for repeated banded and
// subsequence computations, letting hot loops avoid per-call allocation.
// The zero value is ready to use; a Workspace must not be shared between
// concurrent computations.
type Workspace struct {
	buf                  []float64 // backs every row buffer handed out
	prevStart, currStart []int
}

// floats returns a buffer of n values, reusing the backing array.
func (w *Workspace) floats(n int) []float64 {
	if cap(w.buf) < n {
		w.buf = make([]float64, n)
	}
	return w.buf[:n]
}

// rows returns the two rolling rows of a row-at-a-time dynamic program.
func (w *Workspace) rows(width int) (prev, curr []float64) {
	buf := w.floats(2 * width)
	return buf[:width:width], buf[width:]
}

// startRows returns the start-pointer companions to rows, used by the
// subsequence DP to recover where each path entered row 0.
func (w *Workspace) startRows(width int) (prev, curr []int) {
	if cap(w.prevStart) < width {
		w.prevStart = make([]int, width)
		w.currStart = make([]int, width)
	}
	return w.prevStart[:width], w.currStart[:width]
}

// Banded computes the DTW distance constrained to band using rolling rows.
// Cells outside the band are treated as +Inf. The band must be normalized
// (or otherwise known to contain a monotone path); Banded returns an error
// if the constrained grid admits no path, which cannot happen for
// normalized bands.
func Banded(x, y []float64, b Band, dist series.PointDistance) (float64, int, error) {
	return BandedWS(x, y, b, dist, nil)
}

// BandedWS is Banded with an optional caller-provided workspace for
// allocation-free repeated computation.
func BandedWS(x, y []float64, b Band, dist series.PointDistance, ws *Workspace) (float64, int, error) {
	d, cells, _, err := BandedAbandonWS(x, y, b, dist, math.Inf(1), ws)
	return d, cells, err
}

// BandedAbandonWS is BandedWS under a pruning budget (Herrmann & Webb's
// early abandoning and pruning): the dynamic program fills only cells
// that can still come in at or under budget and returns abandoned=true
// once it knows the banded distance exceeds it. Row to row it carries the
// live range — the first and last cell of the row above at or under
// budget — and fills from the first live column to one past the last, and
// on from there only while the cell to the left is itself within budget:
// every other cell of the row has three predecessors over budget, and
// with non-negative point costs is over budget too. A cell within budget
// has a predecessor within budget, which pruning left exact, so every
// distance that is not abandoned is the one BandedWS returns, bit for
// bit. The computation abandons at the first row with no cell within
// budget — every warp path crosses every row — and, having run every
// row, when the corner cell itself is over budget. Bands whose widest row
// is under 12 cells (the radius-3 window) are filled in whole rows:
// there is too little to prune to pay for finding it.
//
// The budget is exclusive: abandoned means the banded distance is
// strictly greater than budget, so a candidate whose true distance ties
// the budget is always evaluated fully. The cost returned with
// abandoned=true is the smallest float64 above budget, which is all an
// abandoned computation knows — a valid lower bound on the banded
// distance, strictly above the budget, and nothing tighter: the cells it
// did fill may have lost their cheapest predecessor to pruning, so no
// row minimum bounds the distance from below. cells counts the cells
// filled, through the abandoning row. A budget of +Inf (or NaN) prunes
// nothing, never abandons and makes the call identical to BandedWS,
// including its distance and cell count bit for bit.
//
// Pruning and abandonment both require a non-negative point distance (the
// default squared cost is); callers with signed custom costs must pass
// budget = +Inf.
func BandedAbandonWS(x, y []float64, b Band, dist series.PointDistance, budget float64, ws *Workspace) (float64, int, bool, error) {
	return BandedAbandonCtx(nil, x, y, b, dist, budget, ws)
}

// overBudget is the cost an abandoned computation reports: the smallest
// float64 above budget (see BandedAbandonWS).
func overBudget(budget float64) float64 { return math.Nextafter(budget, math.Inf(1)) }

// cancelCheckRows is how often (in grid rows) BandedAbandonCtx polls the
// context. A row is O(band width) work, so a handful of rows bounds the
// cancellation latency to microseconds while keeping the poll off the
// inner loop.
const cancelCheckRows = 8

// BandedAbandonCtx is BandedAbandonWS threaded with a context: every few
// rows the dynamic program polls ctx and, once the context is cancelled,
// stops mid-band and returns ctx.Err() (so errors.Is(err, context.Canceled)
// and errors.Is(err, context.DeadlineExceeded) hold). A nil ctx disables
// the polling and behaves exactly like BandedAbandonWS.
//
// The loop below is the custom-cost path and the reference the squared
// kernel (kernel.go) is tested against: one row at a time, pruned by the
// rule above to the cell.
func BandedAbandonCtx(ctx context.Context, x, y []float64, b Band, dist series.PointDistance, budget float64, ws *Workspace) (float64, int, bool, error) {
	if err := checkInputs(x, y, b); err != nil {
		return 0, 0, false, err
	}
	if useSquaredKernel(dist) {
		return bandedAbandonSquared(ctx, x, y, b, budget, ws)
	}
	if dist == nil {
		dist = series.SquaredDistance
	}
	n, m := len(x), len(y)
	inf := math.Inf(1)
	// Band-compact rolling rows: row buffers hold only the band interval,
	// so the DP costs O(band cells), not O(NM). Reads into the previous
	// row are bounds-checked against its interval instead of padding the
	// arrays with infinities.
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
		if ctx != nil && i%cancelCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return 0, cells, false, err
			}
		}
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
			v := best + dist(xi, y[j])
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

// errNoWarpPath is the shared constrained-grid infeasibility error of the
// generic and monomorphized dynamic programs.
func errNoWarpPath() error {
	return fmt.Errorf("dtw: band admits no warp path (band not normalized?)")
}

// BandedWithPath computes the band-constrained DTW distance and recovers
// the optimal warp path within the band. Memory is proportional to the
// band's cell count, not N*M: all rows live in one flat backing array
// (one allocation, not one per row — pinned by a regression test).
func BandedWithPath(x, y []float64, b Band, dist series.PointDistance) (PathResult, error) {
	if err := checkInputs(x, y, b); err != nil {
		return PathResult{}, err
	}
	n, m := len(x), len(y)
	inf := math.Inf(1)
	// Band-compact storage: row i occupies flat[off[i]:off[i+1]], holding
	// cells Lo[i]-1..Hi[i]+1 — the two end cells are the +Inf pads of the
	// squared kernel's row buffers (see kernel.go), unused otherwise.
	off := make([]int, n+1)
	for i := 0; i < n; i++ {
		off[i+1] = off[i] + b.Hi[i] - b.Lo[i] + 3
	}
	flat := make([]float64, off[n])
	cells := off[n] - 2*n
	at := func(i, j int) float64 {
		if i < 0 || j < 0 || i >= n {
			if i == -1 && j == -1 {
				return 0 // virtual origin D(0,0) of the padded matrix
			}
			return inf
		}
		if j < b.Lo[i] || j > b.Hi[i] {
			return inf
		}
		return flat[off[i]+j-b.Lo[i]+1]
	}
	if useSquaredKernel(dist) {
		prev, prevLo, prevHi := originRow(), -1, -1
		for i := 0; i < n; i++ {
			row := flat[off[i]:off[i+1]]
			fillRowSquared(x[i], y, b.Lo[i], prev, prevLo, prevHi, row, b.Lo[i], b.Hi[i], inf)
			prev, prevLo, prevHi = row, b.Lo[i], b.Hi[i]
		}
	} else {
		if dist == nil {
			dist = series.SquaredDistance
		}
		for i := 0; i < n; i++ {
			lo, hi := b.Lo[i], b.Hi[i]
			xi := x[i]
			for j := lo; j <= hi; j++ {
				var best float64
				if i == 0 && j == 0 {
					best = 0
				} else {
					best = at(i-1, j-1)
					if v := at(i-1, j); v < best {
						best = v
					}
					if v := at(i, j-1); v < best {
						best = v
					}
				}
				flat[off[i]+j-lo+1] = best + dist(xi, y[j])
			}
		}
	}
	d := at(n-1, m-1)
	if math.IsInf(d, 1) {
		return PathResult{Cells: cells}, errNoWarpPath()
	}
	// Backtrack: at each cell pick the predecessor with the minimal
	// accumulated cost, preferring the diagonal on ties (shortest path).
	path := make(Path, 0, n+m)
	i, j := n-1, m-1
	for {
		// Every step lowers i+j, so a walk that misses the origin leaves
		// the grid; only NaN costs (a NaN or infinite input) lose every
		// comparison and lead it there.
		if i < 0 || j < 0 {
			return PathResult{Cells: cells}, fmt.Errorf("dtw: no warp path through non-finite costs")
		}
		path = append(path, Step{i, j})
		if i == 0 && j == 0 {
			break
		}
		diag, vert, horz := at(i-1, j-1), at(i-1, j), at(i, j-1)
		switch {
		case diag <= vert && diag <= horz:
			i, j = i-1, j-1
		case vert <= horz:
			i--
		default:
			j--
		}
	}
	// Reverse in place.
	for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
		path[l], path[r] = path[r], path[l]
	}
	return PathResult{Distance: d, Path: path, Cells: cells}, nil
}

func checkInputs(x, y []float64, b Band) error {
	if len(x) == 0 || len(y) == 0 {
		return fmt.Errorf("dtw: empty input (len(x)=%d len(y)=%d): %w", len(x), len(y), series.ErrEmptySeries)
	}
	if len(b.Lo) != len(x) {
		return fmt.Errorf("dtw: band has %d rows, series has %d points: %w", len(b.Lo), len(x), series.ErrLengthMismatch)
	}
	if b.M != len(y) {
		return fmt.Errorf("dtw: band constrains %d columns, series has %d points: %w", b.M, len(y), series.ErrLengthMismatch)
	}
	return b.Validate()
}
