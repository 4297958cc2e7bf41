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
// comes back too: oracleBudgeted reads the live ranges off it.
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
			cost := float64(d * d) // rounded before the add, like the kernels' cost
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

// budgeted is what a banded DP under a budget must return, read off the
// oracle's matrix (see oracleBudgeted).
type budgeted struct {
	// abandoned: some row has no cell within budget, or every row has and
	// the corner cell is over it — the distance exceeds the budget.
	abandoned bool
	// exact is the number of cells pruning to the cell fills, through the
	// abandoning row: what the row-at-a-time reference must count. whole is the band's
	// cells through that row, which no kernel may exceed. The strip kernel
	// prunes coarser than to the cell — it holds one left bound for four
	// rows and runs each row's end against the filled end of the row above,
	// not its live end — so the kernel lies between the two.
	exact, whole int
}

// oracleBudgeted derives the contract of BandedAbandonCtx under budget
// from the unpruned matrix. The live range of a row is its first and last
// band cell within budget; the first row without one abandons. Pruning to
// the cell fills row i from the first live column of row i-1 (or Lo[i],
// if that is further right) through the column after its last live one
// (or Hi[i], if that is further left), and on from there while the cell
// to the left is within budget — whose cost the matrix knows, because a
// cell within budget keeps its cost under pruning and a cell over it
// stays over. The virtual row above row 0 is live at column -1, the free
// origin. A +Inf budget, and any budget over a band whose widest row is
// under dtw.PruneMinWidth, fills whole rows.
func oracleBudgeted(acc [][]float64, b dtw.Band, budget float64) budgeted {
	n := b.N()
	maxWidth := 0
	for i := 0; i < n; i++ {
		maxWidth = max(maxWidth, b.Hi[i]-b.Lo[i]+1)
	}
	prune := budget < math.Inf(1) && maxWidth >= dtw.PruneMinWidth
	var want budgeted
	first, last := -1, -1 // live range of the row above
	for i := 0; i < n; i++ {
		lo, hi := b.Lo[i], b.Hi[i]
		want.whole += hi - lo + 1
		if prune {
			from, to := max(lo, first), min(hi, last+1)
			for to >= from && to < hi && acc[i+1][to+1] <= budget {
				to++
			}
			if to >= from {
				want.exact += to - from + 1
			}
		} else {
			want.exact = want.whole
		}
		first, last = -1, -1
		for j := lo; j <= hi; j++ {
			if acc[i+1][j+1] <= budget {
				if first < 0 {
					first = j
				}
				last = j
			}
		}
		if first < 0 {
			want.abandoned = true
			return want
		}
	}
	want.abandoned = !(acc[n][b.M] <= budget)
	return want
}

// oracleRowMin is the smallest accumulated cost among row i's band cells.
func oracleRowMin(acc [][]float64, b dtw.Band, i int) float64 {
	rowMin := math.Inf(1)
	for j := b.Lo[i]; j <= b.Hi[i]; j++ {
		rowMin = math.Min(rowMin, acc[i+1][j+1])
	}
	return rowMin
}

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

// checkOracleCase holds every banded dynamic program to the oracle on one
// pair: Banded, BandedAbandonCtx and the row-at-a-time reference
// dtw.BandedGeneric at a +Inf budget, and BandedWithPath, must report the
// oracle's distance bit for bit and fill every cell of the band, and every
// recovered path — the oracle's too — must be a valid warp path inside the
// band whose cost is that distance. Then BandedAbandonCtx and the
// reference run under each of budgets and are held to oracleBudgeted: the
// oracle's distance bit for bit when that is within budget, abandoned
// otherwise, with a cost strictly above the budget and not above the
// distance; the reference's cell count the exact pruned one, the kernel's
// between that and the band's — which pins the abandoning row from both
// sides.
func checkOracleCase(t *testing.T, x, y []float64, b dtw.Band, acc [][]float64, wantPath dtw.Path, budgets []float64) {
	t.Helper()
	n, m := len(x), len(y)
	want := acc[n][m]
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
		if c := p.Cost(x, y); math.Float64bits(c) != math.Float64bits(want) {
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
	d, cells, err := dtw.Banded(x, y, b)
	same("Banded", d, cells, err)
	res, err := dtw.BandedWithPath(x, y, b)
	same("BandedWithPath", res.Distance, res.Cells, err)
	checkPath("BandedWithPath", res.Path)
	for _, k := range []struct {
		name      string
		run       func(budget float64) (float64, int, bool, error)
		toTheCell bool
	}{
		{"kernel", func(budget float64) (float64, int, bool, error) {
			return dtw.BandedAbandonCtx(context.Background(), x, y, b, budget, nil)
		}, false},
		{"reference", func(budget float64) (float64, int, bool, error) {
			return dtw.BandedGeneric(x, y, b, budget, nil)
		}, true},
	} {
		d, cells, abandoned, err := k.run(math.Inf(1))
		same(k.name, d, cells, err)
		if abandoned {
			t.Fatalf("%s abandoned under a +Inf budget", k.name)
		}
		for _, budget := range budgets {
			wantB := oracleBudgeted(acc, b, budget)
			d, cells, abandoned, err := k.run(budget)
			if err != nil {
				t.Fatalf("%s under budget %v: %v", k.name, budget, err)
			}
			fail := func(what string) {
				t.Helper()
				t.Fatalf("%s (%dx%d) under budget %v = (%v, %d cells, abandoned %v): %s; oracle distance %v, %+v\nband %+v",
					k.name, n, m, budget, d, cells, abandoned, what, want, wantB, b)
			}
			switch {
			case abandoned != wantB.abandoned:
				fail("abandoned differs")
			case !abandoned && math.Float64bits(d) != math.Float64bits(want):
				fail("distance bits differ")
			case abandoned && !(d > budget && d <= want):
				fail("partial cost not in (budget, distance]")
			case k.toTheCell && cells != wantB.exact:
				fail("cells differ from pruning to the cell")
			case cells < wantB.exact || cells > wantB.whole:
				fail("cells outside [exact, whole]")
			}
		}
	}
}

// checkNonFiniteCase plants a NaN, an infinity or an overflowing
// ±MaxFloat64 in copies of x and y and runs the kernel and the
// row-at-a-time reference under the budgets — finite ones, where the
// oracle's case has them. The oracle's matrix says nothing about such
// inputs (a NaN cost sticks to the cells below it or is dropped, as the <
// cascade has it, and a pruned NaN is neither), so the contract is the one
// that is left: a NaN cell is dead, the kernel keeps such inputs on the
// per-row path and there agrees with the reference on everything, cells
// included; an abandoned cost is over the budget, a returned distance
// within it.
func checkNonFiniteCase(t *testing.T, rng *rand.Rand, x, y []float64, b dtw.Band, budgets []float64) {
	t.Helper()
	x, y = append([]float64(nil), x...), append([]float64(nil), y...)
	kind := 1 + rng.Intn(dtw.NonFiniteKinds-1)
	dtw.InjectNonFinite(rng, x, y, kind)
	strips := kind >= 4 // ±MaxFloat64 is finite: those inputs may run in strips
	for _, budget := range budgets {
		gd, gc, ga, gerr := dtw.BandedGeneric(x, y, b, budget, nil)
		sd, sc, sa, serr := dtw.BandedAbandonCtx(context.Background(), x, y, b, budget, nil)
		switch {
		case (gerr == nil) != (serr == nil):
			t.Fatalf("non-finite kind %d under budget %v: reference error %v, kernel %v", kind, budget, gerr, serr)
		case math.Float64bits(gd) != math.Float64bits(sd) || ga != sa || sc < gc || sc > b.Cells() || (!strips && sc != gc):
			t.Fatalf("non-finite kind %d (%dx%d) under budget %v: reference (%v, %d cells, abandoned %v), kernel (%v, %d cells, abandoned %v)\nband %+v",
				kind, len(x), len(y), budget, gd, gc, ga, sd, sc, sa, b)
		case gerr == nil && budget < math.Inf(1) && ga != !(gd <= budget):
			t.Fatalf("non-finite kind %d under budget %v: cost %v, abandoned %v", kind, budget, gd, ga)
		}
	}
}

// abandonBudgets places budgets on the oracle's matrix so that
// abandonment and pruning land where the kernel's row grouping could get
// them wrong: for four consecutive rows from a random one — each position
// within a strip of four, wherever the strips fall — the row's minimum
// itself (the row survives, a later one abandons) and the float just
// below it (this row abandons, unless an earlier one already did); the
// same pair for the last row, where a budget between its minimum and the
// distance leaves every row a live cell and the corner dead; the distance
// itself (the tightest budget that completes, so the most pruned), the
// float below it, half of it and one and a half times it; and 0.
func abandonBudgets(rng *rand.Rand, acc [][]float64, b dtw.Band) []float64 {
	n := b.N()
	d := acc[n][b.M]
	budgets := []float64{0, d, math.Nextafter(d, math.Inf(-1)), d / 2, d * 1.5}
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

// checkRandomCase is one case of the sweep and of the fuzz target: the
// pair against the oracle under abandonBudgets, then the same pair with
// non-finite values planted in it.
func checkRandomCase(t *testing.T, rng *rand.Rand, x, y []float64, b dtw.Band) {
	t.Helper()
	_, path, acc := oracleDTW(x, y, b)
	budgets := abandonBudgets(rng, acc, b)
	checkOracleCase(t, x, y, b, acc, path, budgets)
	checkNonFiniteCase(t, rng, x, y, b, budgets)
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
// kernels' other differential targets compare them with the row-at-a-time
// references; this compares both with an implementation that shares none
// of their code. CI runs it for a bounded ~30 s in the fuzz-smoke lane.
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
		checkRandomCase(t, rng, x, y, oracleBand(t, rng, n, m, sel, symmetric))
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
		checkRandomCase(t, rng, x, y, oracleBand(t, rng, n, m, uint8(trial), trial%3 == 0))
	}
	trials := 280
	if testing.Short() {
		trials = 56
	}
	for trial := 0; trial < trials; trial++ {
		n, m := dtw.StripShape(rng)
		x, y := oracleSeries(rng, n), oracleSeries(rng, m)
		checkRandomCase(t, rng, x, y, oracleBand(t, rng, n, m, uint8(trial), trial%3 == 0))
	}
}

// TestBandStepsBackOfLiveRange pins dtw.StepBackCase: the oracle confirms
// what the case is built to be — under its budget the live range of the
// row above the short one lies right of where the short row ends, and the
// short row has no live cell — and the kernel and the reference must then
// abandon on that row, having filled none of it. Pruning that trusts Hi
// not to decrease slices that row from its start to before it.
func TestBandStepsBackOfLiveRange(t *testing.T) {
	x, y, b, budget := dtw.StepBackCase()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	_, path, acc := oracleDTW(x, y, b)
	short := -1
	for i := 1; i < b.N(); i++ {
		if b.Hi[i] < b.Hi[i-1] {
			short = i
			break
		}
	}
	if short < 0 {
		t.Fatal("no row of the band steps back")
	}
	for j := 0; j <= b.Hi[short]; j++ {
		if acc[short][j+1] <= budget || acc[short+1][j+1] <= budget {
			t.Fatalf("column %d of row %d or the row above is within budget %v: the band does not step back of the live range", j, short, budget)
		}
	}
	want := oracleBudgeted(acc, b, budget)
	if through := short * b.M; !want.abandoned || want.exact >= through || want.whole != through+b.Hi[short]+1 {
		t.Fatalf("oracle %+v: want abandonment on row %d with none of its cells filled", want, short)
	}
	checkOracleCase(t, x, y, b, acc, path, []float64{budget})
	checkNonFiniteCase(t, rand.New(rand.NewSource(1)), x, y, b, []float64{budget})
}
