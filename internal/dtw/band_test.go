package dtw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFullBandCoversGrid(t *testing.T) {
	b := FullBand(4, 6)
	if b.Cells() != 24 {
		t.Fatalf("full band cells = %d, want 24", b.Cells())
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			if !b.Contains(i, j) {
				t.Fatalf("full band missing (%d,%d)", i, j)
			}
		}
	}
	if b.Contains(-1, 0) || b.Contains(4, 0) || b.Contains(0, -1) || b.Contains(0, 6) {
		t.Fatal("Contains accepts out-of-grid cells")
	}
}

func TestNewBandStartsEmpty(t *testing.T) {
	b := NewBand(3, 5)
	if b.Cells() != 0 {
		t.Fatalf("new band cells = %d, want 0", b.Cells())
	}
}

func TestBandClone(t *testing.T) {
	b := FullBand(3, 3)
	c := b.Clone()
	c.Lo[0] = 2
	c.Hi[0] = 2
	if b.Lo[0] != 0 {
		t.Fatal("Clone shares storage")
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name string
		b    Band
	}{
		{"mismatched lengths", Band{Lo: []int{0}, Hi: []int{0, 1}, M: 2}},
		{"empty", Band{M: 2}},
		{"non-positive M", Band{Lo: []int{0}, Hi: []int{0}, M: 0}},
		{"negative lo", Band{Lo: []int{-1}, Hi: []int{0}, M: 2}},
		{"hi out of range", Band{Lo: []int{0}, Hi: []int{2}, M: 2}},
		{"inverted interval", Band{Lo: []int{1}, Hi: []int{0}, M: 2}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.b.Validate(); err == nil {
				t.Fatal("invalid band accepted")
			}
			if _, err := tc.b.Validated(); err == nil {
				t.Fatal("invalid band accepted by Validated")
			}
		})
	}
}

// TestValidatedBandMatchesUnchecked: a Validated band carries its widest
// row and runs every banded dynamic program to the bits, cells and
// abandoned flag the same rows give unchecked, on every strip-case shape.
func TestValidatedBandMatchesUnchecked(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var ws Workspace
	for trial := 0; trial < 200; trial++ {
		n, m := 1+rng.Intn(60), 1+rng.Intn(60)
		b := StripBand(rng, n, m, trial%StripBandKinds)
		vb, err := b.Validated()
		if err != nil {
			t.Fatal(err)
		}
		if w, _ := b.widest(); vb.width != w || b.width != 0 {
			t.Fatalf("trial %d: Validated carries width %d, widest row %d (receiver %d)", trial, vb.width, w, b.width)
		}
		x, y := randomSeries(rng, n), randomSeries(rng, m)
		full, _, err := Banded(x, y, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []float64{math.Inf(1), full, full / 2} {
			want, wantCells, wantAb, err := BandedAbandonCtx(nil, x, y, b, budget, &ws)
			if err != nil {
				t.Fatal(err)
			}
			got, cells, ab, err := BandedAbandonCtx(nil, x, y, vb, budget, &ws)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) || cells != wantCells || ab != wantAb {
				t.Fatalf("trial %d budget %v: validated (%v, %d, %v), unchecked (%v, %d, %v)",
					trial, budget, got, cells, ab, want, wantCells, wantAb)
			}
		}
		// The carried width does not excuse a length mismatch.
		if _, _, _, err := BandedAbandonCtx(nil, append(x, 0), y, vb, math.Inf(1), &ws); err == nil {
			t.Fatalf("trial %d: a validated band accepted %d rows of x for its %d", trial, n+1, n)
		}
	}
}

func TestNormalizeEstablishesInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 200; trial++ {
		n, m := 1+rng.Intn(30), 1+rng.Intn(30)
		b := Band{Lo: make([]int, n), Hi: make([]int, n), M: m}
		for i := 0; i < n; i++ {
			// Deliberately invalid raw values, including out-of-range.
			b.Lo[i] = rng.Intn(3*m) - m
			b.Hi[i] = rng.Intn(3*m) - m
		}
		b.Normalize()
		if err := b.Validate(); err != nil {
			t.Fatalf("normalize left invalid band: %v", err)
		}
		if !b.Contains(0, 0) {
			t.Fatal("normalized band misses origin")
		}
		if !b.Contains(n-1, m-1) {
			t.Fatal("normalized band misses terminal cell")
		}
		for i := 1; i < n; i++ {
			if b.Lo[i] > b.Hi[i-1]+1 {
				t.Fatalf("gap between rows %d and %d: lo=%d prevHi=%d", i-1, i, b.Lo[i], b.Hi[i-1])
			}
			if b.Hi[i-1] < b.Lo[i]-1 {
				t.Fatalf("downward gap between rows %d and %d", i-1, i)
			}
		}
	}
}

func TestNormalizedBandAlwaysAdmitsPath(t *testing.T) {
	// The load-bearing guarantee: any normalized band yields a finite
	// constrained DTW distance.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 1+rng.Intn(25), 1+rng.Intn(25)
		x := randomSeries(rng, n)
		y := randomSeries(rng, m)
		b := Band{Lo: make([]int, n), Hi: make([]int, n), M: m}
		for i := 0; i < n; i++ {
			b.Lo[i] = rng.Intn(2*m) - m/2
			b.Hi[i] = rng.Intn(2*m) - m/2
		}
		b.Normalize()
		d, _, err := Banded(x, y, b)
		return err == nil && !math.IsInf(d, 1) && !math.IsNaN(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnionWidensInPlace(t *testing.T) {
	a := SakoeChiba(10, 10, 0.1)
	c := a.Clone()
	wide := SakoeChiba(10, 10, 0.5)
	c.Union(wide)
	for i := range c.Lo {
		if c.Lo[i] > a.Lo[i] || c.Hi[i] < a.Hi[i] {
			t.Fatal("union shrank the receiver")
		}
		if c.Lo[i] > wide.Lo[i] || c.Hi[i] < wide.Hi[i] {
			t.Fatal("union misses cells of the argument")
		}
	}
}

func TestUnionIncompatiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("incompatible union did not panic")
		}
	}()
	a := FullBand(3, 3)
	a.Union(FullBand(4, 3))
}

func TestTransposeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n, m := 2+rng.Intn(15), 2+rng.Intn(15)
		b := randomBand(rng, n, m).Normalize()
		tr := b.Transpose()
		if tr.N() != m || tr.M != n {
			t.Fatalf("transpose shape (%d,%d), want (%d,%d)", tr.N(), tr.M, m, n)
		}
		// Every cell of b appears transposed.
		for i := 0; i < n; i++ {
			for j := b.Lo[i]; j <= b.Hi[i]; j++ {
				if !tr.Contains(j, i) {
					t.Fatalf("transpose misses (%d,%d)", j, i)
				}
			}
		}
	}
}

func TestSakoeChibaShape(t *testing.T) {
	b := SakoeChiba(100, 100, 0.10)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// Radius = ceil(0.10*100/2) = 5; interior rows span ~11 columns.
	mid := 50
	width := b.Hi[mid] - b.Lo[mid] + 1
	if width < 11 || width > 13 {
		t.Fatalf("mid-row width = %d, want ~11", width)
	}
	// The diagonal is inside everywhere.
	for i := 0; i < 100; i++ {
		if !b.Contains(i, i) {
			t.Fatalf("diagonal escapes Sakoe-Chiba band at %d", i)
		}
	}
}

func TestSakoeChibaRectangularGrid(t *testing.T) {
	b := SakoeChiba(50, 200, 0.10)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// The scaled diagonal stays inside.
	for i := 0; i < 50; i++ {
		j := DiagonalColumn(i, 50, 200)
		if !b.Contains(i, j) {
			t.Fatalf("scaled diagonal escapes band at row %d (j=%d, [%d,%d])", i, j, b.Lo[i], b.Hi[i])
		}
	}
}

func TestSakoeChibaWidthMonotone(t *testing.T) {
	narrow := SakoeChiba(80, 80, 0.05)
	wide := SakoeChiba(80, 80, 0.25)
	if narrow.Cells() >= wide.Cells() {
		t.Fatalf("narrow band (%d cells) not smaller than wide (%d)", narrow.Cells(), wide.Cells())
	}
}

func TestSakoeChibaFullWidthSpansInteriorRows(t *testing.T) {
	// At widthFrac=1 the radius is m/2, so every interior row spans at
	// least half the columns and the centre row spans all of them. The
	// corners stay clipped because the window is centred on the diagonal.
	b := SakoeChiba(20, 20, 1.0)
	mid := 10
	if b.Lo[mid] != 0 || b.Hi[mid] != 19 {
		t.Fatalf("centre row spans [%d,%d], want [0,19]", b.Lo[mid], b.Hi[mid])
	}
	for i := 0; i < 20; i++ {
		if w := b.Hi[i] - b.Lo[i] + 1; w < 10 {
			t.Fatalf("row %d spans %d columns, want >= 10", i, w)
		}
	}
}

func TestSakoeChibaDegenerateInputs(t *testing.T) {
	b := SakoeChiba(1, 1, 0.1)
	if !b.Contains(0, 0) {
		t.Fatal("1x1 band misses origin")
	}
	b = SakoeChiba(5, 5, 0) // zero width defaults to minimal
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive grid not rejected")
		}
	}()
	SakoeChiba(0, 5, 0.1)
}

func TestDiagonalColumnEndpoints(t *testing.T) {
	if DiagonalColumn(0, 10, 20) != 0 {
		t.Fatal("diagonal start not at column 0")
	}
	if DiagonalColumn(9, 10, 20) != 19 {
		t.Fatal("diagonal end not at last column")
	}
	if DiagonalColumn(0, 1, 5) != 0 {
		t.Fatal("single-row grid should map to 0")
	}
}

func TestCellsCountsIntervals(t *testing.T) {
	b := Band{Lo: []int{0, 1, 2}, Hi: []int{1, 1, 4}, M: 5}
	if got := b.Cells(); got != 2+1+3 {
		t.Fatalf("Cells = %d, want 6", got)
	}
}
