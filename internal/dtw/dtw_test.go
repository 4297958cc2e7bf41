package dtw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSeries(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestDistanceKnownValues(t *testing.T) {
	tests := []struct {
		name string
		x, y []float64
		want float64
	}{
		{"identical", []float64{1, 2, 3}, []float64{1, 2, 3}, 0},
		{"single points", []float64{2}, []float64{5}, 9},
		{"shifted step", []float64{0, 0, 1, 1}, []float64{0, 1, 1, 1}, 0},
		{"constant offset", []float64{0, 0, 0}, []float64{1, 1, 1}, 3},
		{"stretch absorbed", []float64{0, 1, 2}, []float64{0, 0, 1, 1, 2, 2}, 0},
		{"reversal costs", []float64{0, 1}, []float64{1, 0}, 2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Distance(tc.x, tc.y, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-tc.want) > 1e-12 {
				t.Fatalf("Distance = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestDistanceEmptyInput(t *testing.T) {
	if _, err := Distance(nil, []float64{1}, nil); err == nil {
		t.Fatal("empty x not rejected")
	}
	if _, err := Distance([]float64{1}, nil, nil); err == nil {
		t.Fatal("empty y not rejected")
	}
}

func TestDistanceSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		x := randomSeries(rng, 5+rng.Intn(40))
		y := randomSeries(rng, 5+rng.Intn(40))
		dxy, err := Distance(x, y, nil)
		if err != nil {
			t.Fatal(err)
		}
		dyx, err := Distance(y, x, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(dxy-dyx) > 1e-9 {
			t.Fatalf("DTW not symmetric: %v vs %v", dxy, dyx)
		}
	}
}

func TestDistanceSelfIsZero(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		v := make([]float64, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			v[i] = math.Mod(x, 1e3)
		}
		d, err := Distance(v, v, nil)
		return err == nil && d == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceBoundedByDiagonalAlignment(t *testing.T) {
	// The diagonal is a valid warp path, so DTW <= pointwise cost.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(60)
		x := randomSeries(rng, n)
		y := randomSeries(rng, n)
		d, err := Distance(x, y, nil)
		if err != nil {
			t.Fatal(err)
		}
		diag := 0.0
		for i := range x {
			d := x[i] - y[i]
			diag += d * d
		}
		if d > diag+1e-9 {
			t.Fatalf("DTW %v exceeds diagonal alignment cost %v", d, diag)
		}
	}
}

func TestDistanceWithPathMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		x := randomSeries(rng, 2+rng.Intn(50))
		y := randomSeries(rng, 2+rng.Intn(50))
		d, err := Distance(x, y, nil)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := DistanceWithPath(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(d-pr.Distance) > 1e-9 {
			t.Fatalf("path distance %v != rolling distance %v", pr.Distance, d)
		}
		if err := pr.Path.Validate(len(x), len(y)); err != nil {
			t.Fatalf("invalid path: %v", err)
		}
		if c := pr.Path.Cost(x, y); math.Abs(c-d) > 1e-9 {
			t.Fatalf("path cost %v != distance %v", c, d)
		}
	}
}

func TestPathValidate(t *testing.T) {
	tests := []struct {
		name    string
		path    Path
		n, m    int
		wantErr bool
	}{
		{"ok diagonal", Path{{0, 0}, {1, 1}}, 2, 2, false},
		{"ok mixed", Path{{0, 0}, {1, 0}, {1, 1}, {2, 2}}, 3, 3, false},
		{"empty", nil, 2, 2, true},
		{"bad start", Path{{1, 0}, {1, 1}}, 2, 2, true},
		{"bad end", Path{{0, 0}, {1, 0}}, 2, 2, true},
		{"backward step", Path{{0, 0}, {1, 1}, {0, 1}, {1, 1}}, 2, 2, true},
		{"jump", Path{{0, 0}, {2, 2}}, 3, 3, true},
		{"stall", Path{{0, 0}, {0, 0}, {1, 1}}, 2, 2, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.path.Validate(tc.n, tc.m)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate() error = %v, wantErr = %v", err, tc.wantErr)
			}
		})
	}
}

// TestBandedFullBandEqualsFull holds the banded DP over the full band to
// Distance and to the row-at-a-time reference over the same band,
// bit for bit, with every cell of the grid filled.
func TestBandedFullBandEqualsFull(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		x := randomSeries(rng, 2+rng.Intn(40))
		y := randomSeries(rng, 2+rng.Intn(40))
		full, err := Distance(x, y, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref, refCells, _, err := BandedGeneric(x, y, FullBand(len(x), len(y)), math.Inf(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		banded, cells, err := Banded(x, y, FullBand(len(x), len(y)))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(full) != math.Float64bits(banded) || math.Float64bits(ref) != math.Float64bits(banded) {
			t.Fatalf("full-band banded %v, Distance %v, reference %v", banded, full, ref)
		}
		if cells != len(x)*len(y) || refCells != cells {
			t.Fatalf("full band filled %d cells (reference %d), want %d", cells, refCells, len(x)*len(y))
		}
	}
}

func TestBandedNeverUnderestimates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		n, m := 2+rng.Intn(30), 2+rng.Intn(30)
		x := randomSeries(rng, n)
		y := randomSeries(rng, m)
		b := randomBand(rng, n, m).Normalize()
		full, err := Distance(x, y, nil)
		if err != nil {
			t.Fatal(err)
		}
		banded, _, err := Banded(x, y, b)
		if err != nil {
			t.Fatalf("normalized band failed: %v", err)
		}
		if banded < full-1e-9 {
			t.Fatalf("banded %v under full %v", banded, full)
		}
	}
}

func randomBand(rng *rand.Rand, n, m int) Band {
	b := Band{Lo: make([]int, n), Hi: make([]int, n), M: m}
	for i := 0; i < n; i++ {
		a := rng.Intn(m)
		c := rng.Intn(m)
		if a > c {
			a, c = c, a
		}
		b.Lo[i], b.Hi[i] = a, c
	}
	return b
}

func TestBandedWithPathStaysInBand(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 40; trial++ {
		n, m := 2+rng.Intn(25), 2+rng.Intn(25)
		x := randomSeries(rng, n)
		y := randomSeries(rng, m)
		b := randomBand(rng, n, m).Normalize()
		pr, err := BandedWithPath(x, y, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := pr.Path.Validate(n, m); err != nil {
			t.Fatalf("invalid banded path: %v", err)
		}
		for _, s := range pr.Path {
			if !b.Contains(s.I, s.J) {
				t.Fatalf("path leaves band at (%d,%d)", s.I, s.J)
			}
		}
		if c := pr.Path.Cost(x, y); math.Abs(c-pr.Distance) > 1e-9 {
			t.Fatalf("banded path cost %v != distance %v", c, pr.Distance)
		}
	}
}

func TestBandedAgreesWithBandedWithPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n, m := 2+rng.Intn(30), 2+rng.Intn(30)
		x := randomSeries(rng, n)
		y := randomSeries(rng, m)
		b := randomBand(rng, n, m).Normalize()
		d1, cells1, err := Banded(x, y, b)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := BandedWithPath(x, y, b)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(d1-pr.Distance) > 1e-9 {
			t.Fatalf("Banded %v != BandedWithPath %v", d1, pr.Distance)
		}
		if cells1 != pr.Cells {
			t.Fatalf("cell counts differ: %d vs %d", cells1, pr.Cells)
		}
	}
}

func TestBandedRejectsDisconnectedBand(t *testing.T) {
	// A band with an unbridged gap admits no path; Banded must report it
	// rather than return a bogus distance.
	x := []float64{1, 2, 3, 4}
	y := []float64{1, 2, 3, 4}
	b := Band{Lo: []int{0, 0, 3, 3}, Hi: []int{0, 0, 3, 3}, M: 4}
	if _, _, err := Banded(x, y, b); err == nil {
		t.Fatal("disconnected band not rejected")
	}
}

func TestBandedInputValidation(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{1, 2, 3}
	good := FullBand(2, 3)
	if _, _, err := Banded(nil, y, good); err == nil {
		t.Error("empty x accepted")
	}
	if _, _, err := Banded(x, y, FullBand(3, 3)); err == nil {
		t.Error("row-count mismatch accepted")
	}
	if _, _, err := Banded(x, y, FullBand(2, 2)); err == nil {
		t.Error("column-count mismatch accepted")
	}
	bad := Band{Lo: []int{0, 5}, Hi: []int{0, 6}, M: 3}
	if _, _, err := Banded(x, y, bad); err == nil {
		t.Error("out-of-range band accepted")
	}
}

func TestBandedWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var ws Workspace
	for trial := 0; trial < 20; trial++ {
		n, m := 2+rng.Intn(30), 2+rng.Intn(30)
		x := randomSeries(rng, n)
		y := randomSeries(rng, m)
		b := randomBand(rng, n, m).Normalize()
		want, _, err := Banded(x, y, b)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := BandedWS(x, y, b, &ws)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(want-got) > 1e-12 {
			t.Fatalf("workspace reuse changed result: %v vs %v", got, want)
		}
	}
}

func TestBandedPropertyDominatesFull(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 2+rng.Intn(20), 2+rng.Intn(20)
		x := randomSeries(rng, n)
		y := randomSeries(rng, m)
		b := randomBand(rng, n, m).Normalize()
		full, err1 := Distance(x, y, nil)
		banded, _, err2 := Banded(x, y, b)
		return err1 == nil && err2 == nil && banded >= full-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestWiderBandNeverWorse(t *testing.T) {
	// Monotonicity: adding cells to a band can only improve the estimate.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n, m := 3+rng.Intn(25), 3+rng.Intn(25)
		x := randomSeries(rng, n)
		y := randomSeries(rng, m)
		narrow := SakoeChiba(n, m, 0.1)
		wide := SakoeChiba(n, m, 0.4)
		dn, _, err := Banded(x, y, narrow)
		if err != nil {
			t.Fatal(err)
		}
		dw, _, err := Banded(x, y, wide)
		if err != nil {
			t.Fatal(err)
		}
		if dw > dn+1e-9 {
			t.Fatalf("wider band worse: %v > %v", dw, dn)
		}
	}
}

// TestPathValidateLengthBoundary pins both ends of the length bound: a
// monotone unit-step path holds at most n+m-1 cells (the pure staircase),
// so n+m-1 must validate and n+m must be rejected.
func TestPathValidateLengthBoundary(t *testing.T) {
	n, m := 3, 4
	// Staircase: across row 0, then down the last column — n+m-1 cells.
	staircase := Path{}
	for j := 0; j < m; j++ {
		staircase = append(staircase, Step{0, j})
	}
	for i := 1; i < n; i++ {
		staircase = append(staircase, Step{i, m - 1})
	}
	tests := []struct {
		name    string
		path    Path
		wantErr bool
	}{
		{"staircase n+m-1", staircase, false},
		{"diagonal max(n,m)", Path{{0, 0}, {0, 1}, {1, 2}, {2, 3}}, false},
		{"overlong n+m", append(append(Path{}, staircase...), Step{n - 1, m - 1}), true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if len(tc.path) > 0 {
				if want := n + m - 1; !tc.wantErr && tc.name == "staircase n+m-1" && len(tc.path) != want {
					t.Fatalf("staircase has %d cells, want %d", len(tc.path), want)
				}
			}
			err := tc.path.Validate(n, m)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate() error = %v, wantErr = %v", err, tc.wantErr)
			}
		})
	}
}

// TestBandedAbandonProperties is the contract the retrieval cascade's
// exactness rests on: with budget +Inf the abandoning variant is
// bit-identical to BandedWS, cells included; with a finite budget an
// abandoned run's partial cost is strictly above the budget yet never
// above the true banded distance (a valid lower bound), and a budget at
// or above the true distance never abandons (the budget is exclusive) and
// returns the distance bit for bit, having filled no more cells than the
// band has — on the full band, which is pruned, fewer.
func TestBandedAbandonProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pruned, saved := 0, 0 // full bands wide enough to prune, and those budget = d filled in part
	for trial := 0; trial < 80; trial++ {
		n, m := 3+rng.Intn(30), 3+rng.Intn(30)
		x := randomSeries(rng, n)
		y := randomSeries(rng, m)
		var b Band
		if trial%2 == 0 {
			b = FullBand(n, m)
		} else {
			b = SakoeChiba(n, m, 0.2)
		}
		d, cells, err := BandedWS(x, y, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		di, ci, abandoned, err := BandedAbandonWS(x, y, b, nil, math.Inf(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		if abandoned || di != d || ci != cells {
			t.Fatalf("budget=+Inf diverges: (%v,%d,%v) vs (%v,%d)", di, ci, abandoned, d, cells)
		}
		// Budget exactly at the true distance: exclusive, must not abandon.
		dt, ct, abandoned, err := BandedAbandonWS(x, y, b, nil, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if abandoned || dt != d || ct > cells {
			t.Fatalf("budget=d abandoned or diverged: (%v,%d,%v) vs (%v,%d)", dt, ct, abandoned, d, cells)
		}
		if m >= pruneMinWidth && trial%2 == 0 {
			pruned++
			if ct < cells {
				saved++
			}
		}
		// Tight budget: if the run abandons, the partial cost must be a
		// lower bound on d sitting strictly above the budget, with fewer
		// cells filled.
		budget := d * 0.25
		dp, cp, abandoned, err := BandedAbandonWS(x, y, b, nil, budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		if abandoned {
			if dp <= budget {
				t.Fatalf("abandoned at %v with budget %v (must be strictly above)", dp, budget)
			}
			if dp > d+1e-9*(1+math.Abs(d)) {
				t.Fatalf("partial cost %v exceeds true banded distance %v", dp, d)
			}
			if cp > cells {
				t.Fatalf("abandoned run filled %d cells, full run %d", cp, cells)
			}
		} else if dp != d || cp > cells {
			t.Fatalf("non-abandoned run diverged: (%v,%d) vs (%v,%d)", dp, cp, d, cells)
		}
	}
	if saved*10 < pruned*9 {
		t.Fatalf("budget = d pruned only %d of %d full bands", saved, pruned)
	}
}

// TestFinalRowOverBudgetIsAbandoned pins the case row-by-row abandonment
// cannot see: every row has a cell within budget — here the whole grid
// costs 0 but its last column — and the one cell a warp path must end on
// is over it. The computation runs every row and must still come back
// abandoned, with a cost just over the budget and every cell counted, on
// a band filled in whole rows (4 columns), on a pruned one (16) where the
// strip runs, and on the row-at-a-time reference.
func TestFinalRowOverBudgetIsAbandoned(t *testing.T) {
	for _, n := range []int{4, 16} {
		x, y := make([]float64, n), make([]float64, n)
		y[n-1] = 5
		b := FullBand(n, n)
		d, cells, err := BandedWS(x, y, b, nil)
		if err != nil || d <= 1 || cells != n*n {
			t.Fatalf("n=%d: distance %v over %d cells, err %v", n, d, cells, err)
		}
		for name, run := range map[string]func() (float64, int, bool, error){
			"kernel":    func() (float64, int, bool, error) { return BandedAbandonWS(x, y, b, nil, 1, nil) },
			"reference": func() (float64, int, bool, error) { return BandedGeneric(x, y, b, 1, nil) },
		} {
			got, cells, abandoned, err := run()
			if err != nil || !abandoned || !(got > 1 && got <= d) || cells != n*n {
				t.Fatalf("%s, n=%d under budget 1: (%v, %d cells, abandoned %v, err %v), want abandoned with a cost in (1, %v] after all %d cells",
					name, n, got, cells, abandoned, err, d, n*n)
			}
		}
	}
}

// TestSakoeChibaRadiusGeometry checks the explicit-radius constructor
// keeps every square-grid band cell within |i-j| <= radius — the exact
// window LB_Keogh envelopes at the same radius lower-bound — while the
// widthFrac constructor's ceil rounding can exceed it.
func TestSakoeChibaRadiusGeometry(t *testing.T) {
	for _, n := range []int{2, 9, 50, 137} {
		for _, r := range []int{0, 1, 5, n - 1} {
			b := SakoeChibaRadius(n, n, r)
			if err := b.Validate(); err != nil {
				t.Fatalf("n=%d r=%d: %v", n, r, err)
			}
			for i := 0; i < n; i++ {
				for _, j := range []int{b.Lo[i], b.Hi[i]} {
					if j < i-r || j > i+r {
						t.Fatalf("n=%d r=%d: cell (%d,%d) outside the radius window", n, r, i, j)
					}
				}
				// The full window (clamped to the grid) must be present:
				// narrower would make the windowed distance stricter than
				// the envelopes assume.
				wantLo, wantHi := i-r, i+r
				if wantLo < 0 {
					wantLo = 0
				}
				if wantHi > n-1 {
					wantHi = n - 1
				}
				if b.Lo[i] > wantLo || b.Hi[i] < wantHi {
					t.Fatalf("n=%d r=%d row %d: band [%d,%d] narrower than window [%d,%d]",
						n, r, i, b.Lo[i], b.Hi[i], wantLo, wantHi)
				}
			}
		}
	}
	// The off-by-one this constructor exists to avoid: deriving radius 1
	// via widthFrac gives ceil(3/L * L/2) = 2.
	wide := SakoeChiba(9, 9, 3.0/9.0)
	if wide.Hi[0] <= 1 {
		t.Fatalf("widthFrac-derived band no longer over-widens (Hi[0]=%d); keep constructors in sync", wide.Hi[0])
	}
	if exact := SakoeChibaRadius(9, 9, 1); exact.Hi[0] != 1 {
		t.Fatalf("radius-1 band Hi[0] = %d, want 1", exact.Hi[0])
	}
}
