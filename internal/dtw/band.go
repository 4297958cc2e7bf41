// Package dtw implements dynamic time warping: the full O(NM) dynamic
// program, warp-path recovery, and band-constrained variants where the
// feasible region of the DTW grid is restricted to arbitrary per-row column
// intervals. The classical Sakoe-Chiba band is provided as a constructor of
// such bands; the sDTW locally relevant constraints (package band) produce
// bands consumed by the same engine.
package dtw

import (
	"fmt"
	"math"
)

// Band restricts the DTW grid: row i (aligned with x[i]) may only visit
// columns j (aligned with y[j]) with Lo[i] <= j <= Hi[i], both inclusive.
// len(Lo) == len(Hi) == N; columns range over [0, M).
//
// A Band is only meaningful for a specific (N, M) grid size. Use Normalize
// before handing a hand-built band to the DP: it guarantees the band
// contains a monotone warp path from (0,0) to (N-1,M-1) so the constrained
// DP always produces a finite distance.
type Band struct {
	Lo, Hi []int
	// M is the number of columns of the grid the band constrains.
	M int
}

// NewBand allocates an empty band for an n-by-m grid with all rows set to
// the degenerate interval [0,-1]; callers fill Lo/Hi and then Normalize.
func NewBand(n, m int) Band {
	b := Band{Lo: make([]int, n), Hi: make([]int, n), M: m}
	for i := range b.Lo {
		b.Lo[i] = 0
		b.Hi[i] = -1
	}
	return b
}

// FullBand returns the unconstrained band covering the entire n-by-m grid.
func FullBand(n, m int) Band {
	b := Band{Lo: make([]int, n), Hi: make([]int, n), M: m}
	for i := range b.Hi {
		b.Hi[i] = m - 1
	}
	return b
}

// N returns the number of rows the band constrains.
func (b Band) N() int { return len(b.Lo) }

// Contains reports whether grid cell (i,j) is inside the band.
func (b Band) Contains(i, j int) bool {
	return i >= 0 && i < len(b.Lo) && j >= b.Lo[i] && j <= b.Hi[i]
}

// Cells returns the number of grid cells inside the band, the work the
// constrained DP performs. Experiments report 1 - Cells/(N*M) as the
// machine-independent pruning gain.
func (b Band) Cells() int {
	total := 0
	for i := range b.Lo {
		if b.Hi[i] >= b.Lo[i] {
			total += b.Hi[i] - b.Lo[i] + 1
		}
	}
	return total
}

// maxWidth returns the cell count of the band's widest row: the row
// buffer the dynamic programs need, and what decides whether a band is
// wide enough for strips and pruning (see pruneMinWidth).
func (b Band) maxWidth() int {
	w := 0
	for i := range b.Lo {
		w = max(w, b.Hi[i]-b.Lo[i]+1)
	}
	return w
}

// Clone returns a deep copy of the band.
func (b Band) Clone() Band {
	lo := make([]int, len(b.Lo))
	hi := make([]int, len(b.Hi))
	copy(lo, b.Lo)
	copy(hi, b.Hi)
	return Band{Lo: lo, Hi: hi, M: b.M}
}

// Validate reports an error when the band's shape is inconsistent with an
// n-by-m grid or when some row interval is out of range. It does not check
// connectivity; Normalize establishes that.
func (b Band) Validate() error {
	if len(b.Lo) != len(b.Hi) {
		return fmt.Errorf("dtw: band Lo/Hi length mismatch: %d vs %d", len(b.Lo), len(b.Hi))
	}
	if len(b.Lo) == 0 {
		return fmt.Errorf("dtw: empty band")
	}
	if b.M <= 0 {
		return fmt.Errorf("dtw: band M=%d must be positive", b.M)
	}
	for i := range b.Lo {
		if b.Lo[i] < 0 || b.Hi[i] >= b.M || b.Lo[i] > b.Hi[i] {
			return fmt.Errorf("dtw: band row %d has invalid interval [%d,%d] for M=%d", i, b.Lo[i], b.Hi[i], b.M)
		}
	}
	return nil
}

// Normalize repairs the band in place so that the constrained DP is
// guaranteed to find a warp path:
//
//  1. every row interval is clamped to [0, M-1] and made non-empty;
//  2. row 0 contains column 0 and row N-1 contains column M-1;
//  3. gaps between consecutive rows are bridged (Lo[i] <= Hi[i-1]+1), the
//     paper's "fill in the missing grid positions" step (§3.3.2);
//  4. every row reaches the running maximum of the lower bounds
//     (Hi[i] >= max(Lo[0..i])), so the band never steps back down below a
//     column the path was already forced to climb past.
//
// Together (3) and (4) are sufficient for completeness: let J_i =
// max(J_{i-1}, Lo[i]) with J_0 = 0. By (4), J_i <= Hi[i]; by (3) the path
// can climb inside row i-1 up to Lo[i]-1 and step diagonally into row i;
// hence a monotone path from (0,0) through every (i, J_i) to (N-1,M-1)
// exists within the band. It returns the band for chaining.
func (b Band) Normalize() Band {
	n := len(b.Lo)
	if n == 0 || b.M <= 0 {
		return b
	}
	clamp := func(v int) int {
		if v < 0 {
			return 0
		}
		if v >= b.M {
			return b.M - 1
		}
		return v
	}
	for i := 0; i < n; i++ {
		b.Lo[i] = clamp(b.Lo[i])
		b.Hi[i] = clamp(b.Hi[i])
		if b.Lo[i] > b.Hi[i] {
			b.Lo[i], b.Hi[i] = b.Hi[i], b.Lo[i]
		}
	}
	// Endpoints.
	b.Lo[0] = 0
	if b.Hi[0] < 0 {
		b.Hi[0] = 0
	}
	b.Hi[n-1] = b.M - 1
	if b.Lo[n-1] > b.Hi[n-1] {
		b.Lo[n-1] = b.Hi[n-1]
	}
	// Forward pass: bridge upward gaps so row i is enterable from row i-1.
	for i := 1; i < n; i++ {
		if b.Lo[i] > b.Hi[i-1]+1 {
			b.Lo[i] = b.Hi[i-1] + 1
			if b.Lo[i] > b.Hi[i] {
				b.Hi[i] = b.Lo[i]
			}
		}
	}
	// Reach pass: once the lower bounds have forced the path up to some
	// column, later rows must still contain that column, or the (only)
	// surviving cells would be unreachable.
	runMax := 0
	for i := 0; i < n; i++ {
		if b.Lo[i] > runMax {
			runMax = b.Lo[i]
		}
		if b.Hi[i] < runMax {
			b.Hi[i] = runMax
		}
	}
	return b
}

// Union widens the band in place to include every cell of other, which must
// constrain a grid of the same shape. Used to build the symmetric band of
// §3.3.3. It returns the band for chaining.
func (b Band) Union(other Band) Band {
	if len(b.Lo) != len(other.Lo) || b.M != other.M {
		panic(fmt.Sprintf("dtw: Union of incompatible bands: %dx%d vs %dx%d",
			len(b.Lo), b.M, len(other.Lo), other.M))
	}
	for i := range b.Lo {
		if other.Lo[i] < b.Lo[i] {
			b.Lo[i] = other.Lo[i]
		}
		if other.Hi[i] > b.Hi[i] {
			b.Hi[i] = other.Hi[i]
		}
	}
	return b
}

// Transpose returns the band of the transposed grid: cell (j,i) of the
// result is inside iff (i,j) is inside b. The result constrains an m-by-n
// grid. Needed to combine X-driven and Y-driven bands symmetrically.
func (b Band) Transpose() Band {
	n := len(b.Lo)
	m := b.M
	t := Band{Lo: make([]int, m), Hi: make([]int, m), M: n}
	for j := 0; j < m; j++ {
		t.Lo[j] = n // sentinel: empty
		t.Hi[j] = -1
	}
	for i := 0; i < n; i++ {
		for j := b.Lo[i]; j <= b.Hi[i]; j++ {
			if j < 0 || j >= m {
				continue
			}
			if i < t.Lo[j] {
				t.Lo[j] = i
			}
			if i > t.Hi[j] {
				t.Hi[j] = i
			}
		}
	}
	// Rows of the transpose never touched by b become degenerate; repair
	// them so the struct remains valid, then let Normalize bridge.
	for j := 0; j < m; j++ {
		if t.Hi[j] < t.Lo[j] {
			t.Lo[j], t.Hi[j] = 0, 0
		}
	}
	return t
}

// SakoeChiba returns the classical fixed-core, fixed-width band for an
// n-by-m grid. widthFrac is the fraction (0,1] of the second series each
// point of the first may be compared against, the paper's "w%": the window
// holds ceil(widthFrac*m) columns centred on the scaled diagonal. The
// result is normalized.
func SakoeChiba(n, m int, widthFrac float64) Band {
	if n <= 0 || m <= 0 {
		panic("dtw: SakoeChiba needs positive grid dimensions")
	}
	if widthFrac <= 0 {
		widthFrac = 1.0 / float64(m)
	}
	if widthFrac > 1 {
		widthFrac = 1
	}
	radius := int(math.Ceil(widthFrac * float64(m) / 2))
	if radius < 1 {
		radius = 1
	}
	b := Band{Lo: make([]int, n), Hi: make([]int, n), M: m}
	for i := 0; i < n; i++ {
		center := diagonalColumn(i, n, m)
		b.Lo[i] = center - radius
		b.Hi[i] = center + radius
	}
	return b.Normalize()
}

// SakoeChibaRadius returns the Sakoe-Chiba band for an n-by-m grid with
// an explicit window radius in samples: row i may visit the columns
// within radius of the scaled diagonal. For square grids this is exactly
// the set |i-j| <= radius, the window LB_Keogh envelopes at the same
// radius lower-bound — retrieval indexes must build their band through
// this constructor (not the widthFrac one, whose ceil rounding can widen
// the radius by one and void the bound's admissibility). radius <= 0
// degenerates to the diagonal; the result is normalized.
func SakoeChibaRadius(n, m, radius int) Band {
	if n <= 0 || m <= 0 {
		panic("dtw: SakoeChibaRadius needs positive grid dimensions")
	}
	if radius < 0 {
		radius = 0
	}
	b := Band{Lo: make([]int, n), Hi: make([]int, n), M: m}
	for i := 0; i < n; i++ {
		center := diagonalColumn(i, n, m)
		b.Lo[i] = center - radius
		b.Hi[i] = center + radius
	}
	return b.Normalize()
}

// diagonalColumn maps row i of an n-by-m grid to the column of the scaled
// diagonal, the fixed core of §3.3.1.
func diagonalColumn(i, n, m int) int {
	if n <= 1 {
		return 0
	}
	return int(math.Round(float64(i) * float64(m-1) / float64(n-1)))
}

// DiagonalColumn exposes the scaled-diagonal mapping for band builders.
func DiagonalColumn(i, n, m int) int { return diagonalColumn(i, n, m) }
