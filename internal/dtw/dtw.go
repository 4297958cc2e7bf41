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

// Cost accumulates the path's total squared alignment cost over x and y,
// each cell's cost rounded before the add exactly as the dynamic programs
// round it, so an optimal path costs the distance bit for bit.
func (p Path) Cost(x, y []float64) float64 {
	total := 0.0
	for _, s := range p {
		total += sq(x[s.I], y[s.J])
	}
	return total
}

// Distance computes the exact DTW distance between x and y over the full
// grid: the banded kernel (see kernel.go) over the full band, in O(M)
// memory. A grid whose every path costs +Inf (infinite or overflowing
// inputs) has that distance.
//
// The series.PointDistance parameter is ignored — the point cost is
// always (a−b)² — and goes with the benchmark edit of ROADMAP item 2c:
// the nested benchmark module calls Distance with a nil cost.
func Distance(x, y []float64, _ series.PointDistance) (float64, error) {
	if len(x) == 0 || len(y) == 0 {
		return 0, fmt.Errorf("dtw: empty input (len(x)=%d len(y)=%d): %w", len(x), len(y), series.ErrEmptySeries)
	}
	d, _, _, err := bandedAbandonSquared(nil, x, y, FullBand(len(x), len(y)), len(y), math.Inf(1), nil)
	if err != nil {
		d = math.Inf(1)
	}
	return d, nil
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
func DistanceWithPath(x, y []float64) (PathResult, error) {
	if len(x) == 0 || len(y) == 0 {
		return PathResult{}, fmt.Errorf("dtw: empty input (len(x)=%d len(y)=%d): %w", len(x), len(y), series.ErrEmptySeries)
	}
	return BandedWithPath(x, y, FullBand(len(x), len(y)))
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
func Banded(x, y []float64, b Band) (float64, int, error) {
	return BandedWS(x, y, b, nil)
}

// BandedWS is Banded with an optional caller-provided workspace for
// allocation-free repeated computation.
func BandedWS(x, y []float64, b Band, ws *Workspace) (float64, int, error) {
	d, cells, _, err := BandedAbandonCtx(nil, x, y, b, math.Inf(1), ws)
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
// there is too little to prune to pay for finding it. Each such row that
// lies under the row above (every row but the first of a square
// Sakoe-Chiba band) runs a branchless loop, whose minimum differs from
// the < cascade's only on a NaN; a row that comes out holding one is
// filled again by the cascade, so NaN and infinite inputs need no scan
// beforehand and get the bits the cascade gives them.
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
// The series.PointDistance parameter is ignored — the point cost is
// always (a−b)² — and goes with the benchmark edit of ROADMAP item 2c:
// the nested benchmark module calls BandedAbandonWS with a nil cost.
func BandedAbandonWS(x, y []float64, b Band, _ series.PointDistance, budget float64, ws *Workspace) (float64, int, bool, error) {
	return BandedAbandonCtx(nil, x, y, b, budget, ws)
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
func BandedAbandonCtx(ctx context.Context, x, y []float64, b Band, budget float64, ws *Workspace) (float64, int, bool, error) {
	maxWidth, err := checkInputs(x, y, b)
	if err != nil {
		return 0, 0, false, err
	}
	return bandedAbandonSquared(ctx, x, y, b, maxWidth, budget, ws)
}

// errNoWarpPath is the constrained-grid infeasibility error of the banded
// dynamic programs.
func errNoWarpPath() error {
	return fmt.Errorf("dtw: band admits no warp path (band not normalized?)")
}

// BandedWithPath computes the band-constrained DTW distance and recovers
// the optimal warp path within the band. Memory is proportional to the
// band's cell count, not N*M: all rows live in one flat backing array
// (one allocation, not one per row — pinned by a regression test).
func BandedWithPath(x, y []float64, b Band) (PathResult, error) {
	if _, err := checkInputs(x, y, b); err != nil {
		return PathResult{}, err
	}
	n, m := len(x), len(y)
	inf := math.Inf(1)
	// Band-compact storage: row i occupies flat[off[i]:off[i+1]], holding
	// cells Lo[i]-1..Hi[i]+1 — the two end cells are the +Inf pads of the
	// squared kernel's row buffers (see kernel.go).
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
	prev, prevLo, prevHi := originRow(), -1, -1
	for i := 0; i < n; i++ {
		row := flat[off[i]:off[i+1]]
		fillRowSquared(x[i], y, b.Lo[i], prev, prevLo, prevHi, row, b.Lo[i], b.Hi[i], inf)
		prev, prevLo, prevHi = row, b.Lo[i], b.Hi[i]
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

// checkInputs validates a banded dynamic program's inputs and returns
// the cell count of the band's widest row (see Band.widest): the one a
// Validated band carries, or else one pass over its rows.
func checkInputs(x, y []float64, b Band) (int, error) {
	if len(x) == 0 || len(y) == 0 {
		return 0, fmt.Errorf("dtw: empty input (len(x)=%d len(y)=%d): %w", len(x), len(y), series.ErrEmptySeries)
	}
	if len(b.Lo) != len(x) {
		return 0, fmt.Errorf("dtw: band has %d rows, series has %d points: %w", len(b.Lo), len(x), series.ErrLengthMismatch)
	}
	if b.M != len(y) {
		return 0, fmt.Errorf("dtw: band constrains %d columns, series has %d points: %w", b.M, len(y), series.ErrLengthMismatch)
	}
	if b.width > 0 {
		return b.width, nil
	}
	return b.widest()
}
