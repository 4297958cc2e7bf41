package dtw

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// cascadeRowMinima returns the minimum of every row of b's dynamic program
// at a +Inf budget, each row filled whole by the < cascade
// (fillRowSquared), NaN cells skipped as the cascade's row minimum skips
// them. The budget just below the minimum of row i is the one that
// abandons at row i, or at the first row with the same minimum: row
// minima never decrease down the grid.
func cascadeRowMinima(x, y []float64, b Band) []float64 {
	n, width := b.N(), b.maxWidth()+2
	prev, curr := make([]float64, width), make([]float64, width)
	copy(prev, originRow())
	prevLo, prevHi := -1, -1
	minima := make([]float64, n)
	for i := range minima {
		lo, hi := b.Lo[i], b.Hi[i]
		rowMin, _ := fillRowSquared(x[i], y, lo, prev, prevLo, prevHi, curr, lo, hi, math.Inf(1))
		minima[i] = math.Float64frombits(rowMin)
		prev, curr = curr, prev
		prevLo, prevHi = lo, hi
	}
	return minima
}

// narrowBudgets is +Inf, the distance (when the band has a finite one)
// and, for every row, its minimum and the float just below it.
func narrowBudgets(x, y []float64, b Band) []float64 {
	budgets := []float64{math.Inf(1)}
	if d, _, _, err := BandedGeneric(x, y, b, math.Inf(1), nil); err == nil && d < math.Inf(1) {
		budgets = append(budgets, d)
	}
	for _, rowMin := range cascadeRowMinima(x, y, b) {
		budgets = append(budgets, rowMin, math.Nextafter(rowMin, math.Inf(-1)))
	}
	return budgets
}

// jumpRows counts the rows after row 0 that do not lie under the row
// above — that jump ahead of it or step back of it — and so run
// fillRowSquared in a narrow band.
func jumpRows(b Band) int {
	jumps := 0
	for i := 1; i < b.N(); i++ {
		if b.Lo[i] < b.Lo[i-1] || b.Hi[i] > b.Hi[i-1]+1 {
			jumps++
		}
	}
	return jumps
}

// TestNarrowBandDifferential holds the narrow-band row loop to the
// row-at-a-time reference, BandedGeneric — distance bits, abandoned flag
// and cells, which are equal on a band under pruneMinWidth — on
// Sakoe-Chiba bands of radius 0..5 at n = m ∈ {1, 2, 7, 128} and on
// StripBand's two narrow kinds, the second of whose rows jump ahead or
// step back of the row above and so run fillRowSquared between rows of
// fillNarrowSquared. Each
// pair runs clean and with a NaN, ±Inf or ±MaxFloat64 planted at row 0,
// a middle row and the last row — in x, in y at the same column, or in
// both, where infinities of one sign make the NaN of Inf-Inf — under a
// +Inf budget, the distance and every row's abandoning point. The builtin
// min the loop runs propagates a NaN operand the < cascade skips, so
// without the refill of a row holding a NaN the planted cases part ways
// with the reference.
func TestNarrowBandDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var bands []Band
	for _, n := range []int{1, 2, 7, 128} {
		for r := 0; r <= 5; r++ {
			bands = append(bands, SakoeChibaRadius(n, n, r))
		}
	}
	jumps := 0
	for trial := 0; trial < 12; trial++ {
		n := 16 + rng.Intn(100)
		b := StripBand(rng, n, n, NarrowBandKind+trial%2)
		jumps += jumpRows(b)
		bands = append(bands, b)
	}
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64}
	var wsK, wsR Workspace
	for _, b := range bands {
		n := b.N()
		if b.maxWidth() >= pruneMinWidth {
			t.Fatalf("%dx%d band is %d cells wide, not narrow: %+v", n, n, b.maxWidth(), b)
		}
		x, y := kernelRandomSeries(rng, n), kernelRandomSeries(rng, n)
		check := func(what string, x, y []float64) {
			t.Helper()
			for _, budget := range narrowBudgets(x, y, b) {
				rd, rc, ra, rerr := BandedGeneric(x, y, b, budget, &wsR)
				kd, kc, ka, kerr := BandedAbandonWS(x, y, b, nil, budget, &wsK)
				if (rerr == nil) != (kerr == nil) || math.Float64bits(rd) != math.Float64bits(kd) || ra != ka || rc != kc {
					t.Fatalf("%dx%d, widest row %d, %s, budget %v: reference (%v, %d cells, abandoned %v, %v), kernel (%v, %d cells, abandoned %v, %v)",
						n, n, b.maxWidth(), what, budget, rd, rc, ra, rerr, kd, kc, ka, kerr)
				}
			}
		}
		check("finite", x, y)
		for _, v := range special {
			for _, i := range []int{0, n / 2, n - 1} {
				for _, where := range []string{"x", "y", "x and y"} {
					px, py := append([]float64(nil), x...), append([]float64(nil), y...)
					if where != "y" {
						px[i] = v
					}
					if where != "x" {
						py[i] = v
					}
					check(fmt.Sprintf("%v planted in %s at %d", v, where, i), px, py)
				}
			}
		}
	}
	if jumps == 0 {
		t.Fatal("no row of the narrow kinds jumps ahead or steps back: fillRowSquared never runs between narrow rows")
	}
}
