package dtw_test

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sdtw/internal/band"
	"sdtw/internal/dtw"
	"sdtw/internal/match"
)

// oracleDTW is the textbook dynamic program, written to be obviously
// right rather than fast and sharing no code with the kernels: the full
// (n+1)×(m+1) accumulated-cost matrix with a +Inf border and a free
// origin, cells outside the band left at +Inf, and the warp path
// recovered by backtracking (diagonal first on ties). It returns +Inf and
// no path when the band admits none. Each cell is cost + min(three
// predecessors) — one addition of the same two operands the kernels add,
// so the distance must agree with theirs to the last bit. The matrix
// comes back too: oracleAbandon reads the row minima off it.
func oracleDTW(x, y []float64, b dtw.Band) (float64, dtw.Path, [][]float64) {
	n, m := len(x), len(y)
	inf := math.Inf(1)
	acc := make([][]float64, n+1)
	for i := range acc {
		acc[i] = make([]float64, m+1)
		for j := range acc[i] {
			acc[i][j] = inf
		}
	}
	acc[0][0] = 0
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			if !b.Contains(i-1, j-1) {
				continue
			}
			d := x[i-1] - y[j-1]
			cost := float64(d * d) // rounded before the add, like a PointDistance result
			acc[i][j] = cost + math.Min(acc[i-1][j-1], math.Min(acc[i-1][j], acc[i][j-1]))
		}
	}
	if math.IsInf(acc[n][m], 1) {
		return inf, nil, acc
	}
	var path dtw.Path
	for i, j := n, m; i > 0 && j > 0; {
		path = append(path, dtw.Step{I: i - 1, J: j - 1})
		diag, up, left := acc[i-1][j-1], acc[i-1][j], acc[i][j-1]
		switch {
		case diag <= up && diag <= left:
			i, j = i-1, j-1
		case up <= left:
			i--
		default:
			j--
		}
	}
	for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
		path[l], path[r] = path[r], path[l]
	}
	return acc[n][m], path, acc
}

// oracleAbandon is what an early-abandoning banded DP must return under
// budget, read off the oracle's matrix: the first row short of the last
// whose in-band minimum exceeds the budget abandons, with that minimum as
// the partial cost and the band's cells through that row as the work
// done; if none does, the full distance and every cell.
func oracleAbandon(acc [][]float64, b dtw.Band, budget float64) (cost float64, cells int, abandoned bool) {
	n := b.N()
	for i := 0; i < n; i++ {
		cells += b.Hi[i] - b.Lo[i] + 1
		if rowMin := oracleRowMin(acc, b, i); i < n-1 && rowMin > budget {
			return rowMin, cells, true
		}
	}
	return acc[n][b.M], cells, false
}

// oracleRowMin is the smallest accumulated cost among row i's band cells.
func oracleRowMin(acc [][]float64, b dtw.Band, i int) float64 {
	rowMin := math.Inf(1)
	for j := b.Lo[i]; j <= b.Hi[i]; j++ {
		rowMin = math.Min(rowMin, acc[i+1][j+1])
	}
	return rowMin
}

// sqClosure is the squared cost as a function value the dispatch does not
// recognise, so it selects the generic per-cell-callback kernels.
func sqClosure(a, b float64) float64 { d := a - b; return d * d }

// oracleStrategies is every band strategy, plus one past the end for a
// random normalized band no strategy would build.
var oracleStrategies = []band.Strategy{
	band.FullGrid, band.FixedCoreFixedWidth, band.FixedCoreAdaptiveWidth,
	band.AdaptiveCoreFixedWidth, band.AdaptiveCoreAdaptiveWidth,
	band.AdaptiveCoreAdaptiveWidthAvg,
}

// oracleBand builds the band of one fuzz case over an n×m grid: strategy
// sel under a random alignment (sorted corresponding boundaries, the
// shape the matcher commits) and random width knobs, or, when sel is past
// the strategies, one of dtw.StripBand's shapes (the first a random
// normalized band no strategy would build, the rest aimed at the strip).
func oracleBand(t *testing.T, rng *rand.Rand, n, m int, sel uint8, symmetric bool) dtw.Band {
	t.Helper()
	k := int(sel) % (len(oracleStrategies) + dtw.StripBandKinds)
	if k < len(oracleStrategies) {
		al := &match.Alignment{NX: n, NY: m}
		for c := rng.Intn(min(n, m)); c > 0; c-- {
			al.BoundsX = append(al.BoundsX, rng.Intn(n))
			al.BoundsY = append(al.BoundsY, rng.Intn(m))
		}
		sort.Ints(al.BoundsX)
		sort.Ints(al.BoundsY)
		b, err := band.Build(al, band.Config{
			Strategy:       oracleStrategies[k],
			WidthFrac:      0.05 + 0.4*rng.Float64(),
			MaxWidthFrac:   rng.Float64(),
			NeighborRadius: rng.Intn(3),
			Symmetric:      symmetric,
		})
		if err != nil {
			t.Fatalf("%v band over %dx%d: %v", oracleStrategies[k], n, m, err)
		}
		return b
	}
	return dtw.StripBand(rng, n, m, k-len(oracleStrategies))
}

// checkOracleCase holds every banded kernel to the oracle on one pair:
// Banded, BandedAbandonCtx at a +Inf budget and BandedWithPath, each
// under both kernel dispatches (nil selects the monomorphized squared
// kernels, a closure the generic ones), must report the oracle's distance
// bit for bit, and every recovered path — the oracle's too — must be a
// valid warp path inside the band whose cost is that distance. Then
// BandedAbandonCtx runs under budgets placed on the oracle's own row
// minima (abandonBudgets) and must return oracleAbandon's partial cost,
// cell count and abandoned flag.
func checkOracleCase(t *testing.T, rng *rand.Rand, x, y []float64, b dtw.Band) {
	t.Helper()
	n, m := len(x), len(y)
	want, wantPath, acc := oracleDTW(x, y, b)
	if wantPath == nil {
		t.Fatalf("normalized %dx%d band admits no warp path: %+v", n, m, b)
	}
	checkPath := func(who string, p dtw.Path) {
		t.Helper()
		if err := p.Validate(n, m); err != nil {
			t.Fatalf("%s path: %v", who, err)
		}
		for _, s := range p {
			if !b.Contains(s.I, s.J) {
				t.Fatalf("%s path leaves the band at (%d,%d)", who, s.I, s.J)
			}
		}
		if c := p.Cost(x, y, nil); math.Float64bits(c) != math.Float64bits(want) {
			t.Fatalf("%s path costs %v, the distance is %v", who, c, want)
		}
	}
	checkPath("oracle", wantPath)
	same := func(who string, got float64, cells int, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", who, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s (%dx%d) = %v (bits %x), oracle %v (bits %x)\nband %+v",
				who, n, m, got, math.Float64bits(got), want, math.Float64bits(want), b)
		}
		if cells != b.Cells() {
			t.Fatalf("%s filled %d cells of a %d-cell band", who, cells, b.Cells())
		}
	}
	for _, k := range []struct {
		name string
		dist func(a, b float64) float64
	}{{"squared kernel", nil}, {"generic kernel", sqClosure}} {
		d, cells, err := dtw.Banded(x, y, b, k.dist)
		same("Banded/"+k.name, d, cells, err)
		d, cells, abandoned, err := dtw.BandedAbandonCtx(context.Background(), x, y, b, k.dist, math.Inf(1), nil)
		same("BandedAbandonCtx/"+k.name, d, cells, err)
		if abandoned {
			t.Fatalf("BandedAbandonCtx/%s abandoned under a +Inf budget", k.name)
		}
		res, err := dtw.BandedWithPath(x, y, b, k.dist)
		same("BandedWithPath/"+k.name, res.Distance, res.Cells, err)
		checkPath("BandedWithPath/"+k.name, res.Path)
		for _, budget := range abandonBudgets(rng, acc, b) {
			wantD, wantCells, wantAbandoned := oracleAbandon(acc, b, budget)
			d, cells, abandoned, err := dtw.BandedAbandonCtx(context.Background(), x, y, b, k.dist, budget, nil)
			if err != nil {
				t.Fatalf("BandedAbandonCtx/%s under budget %v: %v", k.name, budget, err)
			}
			if math.Float64bits(d) != math.Float64bits(wantD) || cells != wantCells || abandoned != wantAbandoned {
				t.Fatalf("BandedAbandonCtx/%s (%dx%d) under budget %v = (%v, %d cells, abandoned %v), oracle (%v, %d cells, abandoned %v)\nband %+v",
					k.name, n, m, budget, d, cells, abandoned, wantD, wantCells, wantAbandoned, b)
			}
		}
	}
}

// abandonBudgets places budgets on the oracle's row minima so that
// abandonment lands where the kernel's row grouping could get it wrong:
// for four consecutive rows from a random one — each position within a
// strip of four, wherever the strips fall — the row's minimum itself (the
// row survives, a later one abandons) and the float just below it (this
// row abandons, unless an earlier one already did); the same pair for the
// last row, which never abandons; and 0.
func abandonBudgets(rng *rand.Rand, acc [][]float64, b dtw.Band) []float64 {
	n := b.N()
	budgets := []float64{0}
	rows := []int{n - 1}
	for r, first := 0, rng.Intn(n); r < 4 && first+r < n; r++ {
		rows = append(rows, first+r)
	}
	for _, i := range rows {
		rowMin := oracleRowMin(acc, b, i)
		budgets = append(budgets, rowMin, math.Nextafter(rowMin, math.Inf(-1)))
	}
	return budgets
}

// oracleSeries draws n values with plateaus and repeats, so ties between
// predecessors (where backtracking has a choice) are common.
func oracleSeries(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch {
		case i > 0 && rng.Intn(4) == 0:
			v[i] = v[i-1]
		case rng.Intn(3) == 0:
			v[i] = float64(rng.Intn(5))
		default:
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// unequal maps two fuzz values to grid dimensions in [1,300] that differ:
// rectangular grids are the path the equal-length retrieval suites never
// take, and 300 rows hold strips by the dozen.
func unequal(n16, m16 uint16) (n, m int) {
	n, m = int(n16)%300+1, int(m16)%300+1
	if n == m {
		m = n%300 + 1
	}
	return n, m
}

// FuzzOracleDifferential drives checkOracleCase over fuzzer-chosen
// unequal lengths, band strategies and strip shapes, and seeds. The
// kernels' existing differential targets compare them with each other;
// this compares all of them with an implementation that shares none of
// their code. CI runs it for a bounded ~30 s in the fuzz-smoke lane.
func FuzzOracleDifferential(f *testing.F) {
	for sel := uint8(0); int(sel) <= len(oracleStrategies); sel++ {
		f.Add(int64(sel)+1, uint16(7*sel+3), uint16(40-5*sel), sel, sel%2 == 0)
	}
	f.Add(int64(99), uint16(0), uint16(47), uint8(4), true)   // 1×48
	f.Add(int64(100), uint16(47), uint16(0), uint8(7), false) // 48×1
	for kind := 1; kind < dtw.StripBandKinds; kind++ {        // the strip shapes at 256+ rows, every n mod 4
		f.Add(int64(200+kind), uint16(255+kind), uint16(299-7*kind), uint8(len(oracleStrategies)+kind), kind%2 == 0)
	}
	full := uint8(len(oracleStrategies) + 4)
	f.Add(int64(300), uint16(63), uint16(11), full, false) // 64×12: joint range exactly the strip threshold
	f.Add(int64(301), uint16(63), uint16(10), full, false) // 64×11: one below
	for n := uint16(0); n < 5; n++ {                       // 1..5 rows: no strip until the fifth
		f.Add(int64(310)+int64(n), n, uint16(39), full, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, n16, m16 uint16, sel uint8, symmetric bool) {
		n, m := unequal(n16, m16)
		rng := rand.New(rand.NewSource(seed))
		x, y := oracleSeries(rng, n), oracleSeries(rng, m)
		checkOracleCase(t, rng, x, y, oracleBand(t, rng, n, m, sel, symmetric))
	})
}

// TestOracleDifferential runs the same property over a fixed sweep, so
// the plain test lanes cover every strategy and strip shape on unequal
// lengths without the fuzzer: small grids as the fuzz target's first
// version drew them, then dtw.StripShape's, up to 300×300.
func TestOracleDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 600; trial++ {
		n, m := unequal(uint16(rng.Intn(48)), uint16(rng.Intn(48)))
		x, y := oracleSeries(rng, n), oracleSeries(rng, m)
		checkOracleCase(t, rng, x, y, oracleBand(t, rng, n, m, uint8(trial), trial%3 == 0))
	}
	trials := 280
	if testing.Short() {
		trials = 56
	}
	for trial := 0; trial < trials; trial++ {
		n, m := dtw.StripShape(rng)
		x, y := oracleSeries(rng, n), oracleSeries(rng, m)
		checkOracleCase(t, rng, x, y, oracleBand(t, rng, n, m, uint8(trial), trial%3 == 0))
	}
}
