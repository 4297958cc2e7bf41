package band

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sdtw/internal/dtw"
	"sdtw/internal/match"
	"sdtw/internal/sift"
)

// alignmentWith builds an alignment with the given corresponding
// boundaries over an nx-by-ny grid.
func alignmentWith(nx, ny int, bx, by []int) *match.Alignment {
	return &match.Alignment{NX: nx, NY: ny, BoundsX: bx, BoundsY: by}
}

func TestStrategyStrings(t *testing.T) {
	tests := []struct {
		s    Strategy
		want string
	}{
		{FullGrid, "dtw"},
		{FixedCoreFixedWidth, "fc,fw"},
		{FixedCoreAdaptiveWidth, "fc,aw"},
		{AdaptiveCoreFixedWidth, "ac,fw"},
		{AdaptiveCoreAdaptiveWidth, "ac,aw"},
		{AdaptiveCoreAdaptiveWidthAvg, "ac2,aw"},
		{Strategy(6), "Strategy(6)"},
	}
	for _, tc := range tests {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", tc.s, got, tc.want)
		}
	}
}

func TestStrategyClassification(t *testing.T) {
	if FixedCoreFixedWidth.AdaptiveCore() || FixedCoreAdaptiveWidth.AdaptiveCore() {
		t.Error("fixed cores misclassified")
	}
	if !AdaptiveCoreFixedWidth.AdaptiveCore() || !AdaptiveCoreAdaptiveWidth.AdaptiveCore() || !AdaptiveCoreAdaptiveWidthAvg.AdaptiveCore() {
		t.Error("adaptive cores misclassified")
	}
	if FixedCoreFixedWidth.AdaptiveWidth() || AdaptiveCoreFixedWidth.AdaptiveWidth() {
		t.Error("fixed widths misclassified")
	}
	if !FixedCoreAdaptiveWidth.AdaptiveWidth() || !AdaptiveCoreAdaptiveWidth.AdaptiveWidth() {
		t.Error("adaptive widths misclassified")
	}
	for s := FullGrid; s <= AdaptiveCoreAdaptiveWidthAvg; s++ {
		if want := s != FullGrid && s != FixedCoreFixedWidth; s.NeedsAlignment() != want {
			t.Errorf("%v.NeedsAlignment() = %v, want %v", s, !want, want)
		}
	}
}

func TestBuildFullGrid(t *testing.T) {
	al := alignmentWith(10, 12, nil, nil)
	b, err := Build(al, Config{Strategy: FullGrid})
	if err != nil {
		t.Fatal(err)
	}
	if b.Cells() != 120 {
		t.Fatalf("full grid cells = %d, want 120", b.Cells())
	}
}

func TestBuildSakoe(t *testing.T) {
	al := alignmentWith(50, 50, nil, nil)
	b, err := Build(al, Config{Strategy: FixedCoreFixedWidth, WidthFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	want := dtw.SakoeChiba(50, 50, 0.1)
	for i := range b.Lo {
		if b.Lo[i] != want.Lo[i] || b.Hi[i] != want.Hi[i] {
			t.Fatalf("row %d: [%d,%d] vs Sakoe [%d,%d]", i, b.Lo[i], b.Hi[i], want.Lo[i], want.Hi[i])
		}
	}
}

// TestBuildRejectsUnknownStrategy: a value outside the six declared
// strategies is an error, not a silently different band.
func TestBuildRejectsUnknownStrategy(t *testing.T) {
	al := alignmentWith(40, 40, nil, nil)
	var bu Builder
	for _, s := range []Strategy{6, 7, 99, -1} {
		if _, err := Build(al, Config{Strategy: s}); err == nil {
			t.Errorf("Build accepted %v", s)
		}
		if _, err := bu.Build(al, Config{Strategy: s}); err == nil {
			t.Errorf("Builder.Build accepted %v", s)
		}
	}
}

func TestBuildAdaptiveRequiresAlignment(t *testing.T) {
	if _, err := Build(nil, Config{Strategy: AdaptiveCoreFixedWidth}); err == nil {
		t.Fatal("nil alignment accepted for adaptive strategy")
	}
	// Fixed strategies still need grid dimensions, which a nil alignment
	// cannot supply: Build must error, not panic.
	if _, err := Build(nil, Config{Strategy: FixedCoreFixedWidth}); err == nil {
		t.Fatal("nil alignment accepted for fixed strategy")
	}
	if _, err := Build(alignmentWith(0, 10, nil, nil), Config{Strategy: FullGrid}); err == nil {
		t.Fatal("zero-dimension alignment accepted")
	}
}

func TestAdaptiveCoreFollowsBoundaries(t *testing.T) {
	// One boundary pair at (50, 20) on a 100x100 grid: the core runs
	// from (0,0) to (50,20) then to (99,99).
	al := alignmentWith(100, 100, []int{50}, []int{20})
	b, err := Build(al, Config{Strategy: AdaptiveCoreFixedWidth, WidthFrac: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	// At i=50 the band must cover j=20 and not j=50 (diagonal).
	if !b.Contains(50, 20) {
		t.Fatalf("band misses boundary-implied core (50,20): [%d,%d]", b.Lo[50], b.Hi[50])
	}
	if b.Contains(50, 50) {
		t.Fatalf("band still follows diagonal at row 50: [%d,%d]", b.Lo[50], b.Hi[50])
	}
	// Midway through the first interval: core ≈ (25, 10).
	if !b.Contains(25, 10) {
		t.Fatalf("interpolated core not covered at (25,10): [%d,%d]", b.Lo[25], b.Hi[25])
	}
}

func TestFixedCoreIgnoresBoundaries(t *testing.T) {
	al := alignmentWith(100, 100, []int{50}, []int{20})
	b, err := Build(al, Config{Strategy: FixedCoreFixedWidth, WidthFrac: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	if !b.Contains(50, 50) {
		t.Fatal("fixed core left the diagonal")
	}
}

func TestAdaptiveWidthTracksIntervalSizes(t *testing.T) {
	// X intervals: [0,100],[100,199]; Y intervals: [0,60],[60,199].
	// Rows in the first interval get width 61, rows in the second 140,
	// both above the 20 % floor of 40.
	al := alignmentWith(200, 200, []int{100}, []int{60})
	b, err := Build(al, Config{Strategy: AdaptiveCoreAdaptiveWidth})
	if err != nil {
		t.Fatal(err)
	}
	wFirst := b.Hi[50] - b.Lo[50] + 1
	wSecond := b.Hi[150] - b.Lo[150] + 1
	if wFirst >= wSecond {
		t.Fatalf("adaptive width not tracking intervals: %d vs %d", wFirst, wSecond)
	}
	if wFirst != 61 {
		t.Fatalf("narrow interval width = %d, want 61", wFirst)
	}
}

func TestAdaptiveWidthNeighbourAveraging(t *testing.T) {
	// With averaging, the width in a tiny interval is pulled up by its
	// large neighbours.
	al := alignmentWith(200, 200, []int{80, 90}, []int{80, 84})
	plain, err := Build(al, Config{Strategy: AdaptiveCoreAdaptiveWidth})
	if err != nil {
		t.Fatal(err)
	}
	avg, err := Build(al, Config{Strategy: AdaptiveCoreAdaptiveWidthAvg})
	if err != nil {
		t.Fatal(err)
	}
	// Row 85 lies in the tiny middle interval (Y length 5, floored at
	// 40); averaged with its neighbours (81 and 116) it is 67.
	wPlain := plain.Hi[85] - plain.Lo[85] + 1
	wAvg := avg.Hi[85] - avg.Lo[85] + 1
	if wAvg <= wPlain {
		t.Fatalf("averaging did not widen tiny interval: %d vs %d", wAvg, wPlain)
	}
}

// TestMinMaxWidthBounds: every adaptive width has the 20 % floor and no
// ceiling. On a 200² grid a Y interval 11 samples long gives its rows the
// floor's 40 columns, and one 190 long gives its rows all 190.
func TestMinMaxWidthBounds(t *testing.T) {
	al := alignmentWith(200, 200, []int{100}, []int{10})
	for _, s := range []Strategy{FixedCoreAdaptiveWidth, AdaptiveCoreAdaptiveWidth} {
		var bu Builder
		widths := bu.rowWidths(al, Config{Strategy: s}.withDefaults())
		if widths[60] != 40 || widths[150] != 190 {
			t.Errorf("%v: rows 60 and 150 are %d and %d wide, want 40 and 190", s, widths[60], widths[150])
		}
	}
}

func TestFcAwDefaultLowerBound(t *testing.T) {
	// §4.3: (fc,aw) runs used a 20% lower bound by default.
	al := alignmentWith(100, 100, []int{30}, []int{10})
	b, err := Build(al, Config{Strategy: FixedCoreAdaptiveWidth})
	if err != nil {
		t.Fatal(err)
	}
	w := b.Hi[50] - b.Lo[50] + 1
	if w < 20 {
		t.Fatalf("(fc,aw) default 20%% lower bound missing: width %d", w)
	}
}

func TestEmptyYIntervalMapsToConstant(t *testing.T) {
	// Boundaries (40,50) and (60,50): the second X interval maps onto an
	// empty Y interval; all its candidate points are st(Y,E)=50.
	al := alignmentWith(100, 100, []int{40, 60}, []int{50, 50})
	b, err := Build(al, Config{Strategy: AdaptiveCoreFixedWidth, WidthFrac: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if !b.Contains(50, 50) {
		t.Fatalf("empty-interval rows do not target the constant candidate")
	}
}

func TestEmptyXIntervalGapBridged(t *testing.T) {
	// Boundaries (50,30) and (50,70): an empty X interval jumps the core
	// vertically; Normalize must bridge so DP still completes.
	al := alignmentWith(100, 100, []int{50, 50}, []int{30, 70})
	b, err := Build(al, Config{Strategy: AdaptiveCoreFixedWidth, WidthFrac: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 100)
	y := make([]float64, 100)
	d, _, err := dtw.Banded(x, y, b)
	if err != nil || math.IsInf(d, 1) {
		t.Fatalf("gap not bridged: %v %v", d, err)
	}
}

func TestSymmetricBandIsUnion(t *testing.T) {
	al := alignmentWith(80, 120, []int{30}, []int{70})
	asym, err := Build(al, Config{Strategy: AdaptiveCoreAdaptiveWidth})
	if err != nil {
		t.Fatal(err)
	}
	sym, err := Build(al, Config{Strategy: AdaptiveCoreAdaptiveWidth, Symmetric: true})
	if err != nil {
		t.Fatal(err)
	}
	if sym.Cells() < asym.Cells() {
		t.Fatalf("symmetric band smaller than asymmetric: %d vs %d", sym.Cells(), asym.Cells())
	}
	for i := range asym.Lo {
		if sym.Lo[i] > asym.Lo[i] || sym.Hi[i] < asym.Hi[i] {
			t.Fatalf("symmetric band does not contain asymmetric at row %d", i)
		}
	}
}

func TestSymmetricDistanceIsSymmetric(t *testing.T) {
	// End-to-end check through real features: with Symmetric bands the
	// constrained distance must not depend on argument order.
	rng := rand.New(rand.NewSource(21))
	mk := func() []float64 {
		v := make([]float64, 120)
		for i := range v {
			v[i] = math.Sin(float64(i)/9) + 0.2*rng.NormFloat64()
		}
		return v
	}
	x, y := mk(), mk()
	fx, err := sift.Extract(x, sift.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fy, err := sift.Extract(y, sift.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Strategy: AdaptiveCoreAdaptiveWidth, Symmetric: true}
	alXY, err := match.Match(fx, fy, len(x), len(y), match.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	alYX, err := match.Match(fy, fx, len(y), len(x), match.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bXY, err := Build(alXY, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bYX, err := Build(alYX, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dXY, _, err := dtw.Banded(x, y, bXY)
	if err != nil {
		t.Fatal(err)
	}
	dYX, _, err := dtw.Banded(y, x, bYX)
	if err != nil {
		t.Fatal(err)
	}
	// Note: matching itself is direction-dependent (X drives the search),
	// so exact symmetry requires matched alignments; with mutual-best
	// matching the two directions converge to the same pair set, making
	// the symmetric distances equal in practice.
	if math.Abs(dXY-dYX) > 1e-6*(1+math.Abs(dXY)) {
		t.Logf("symmetric distances differ: %v vs %v (alignments %d vs %d pairs)",
			dXY, dYX, len(alXY.Pairs), len(alYX.Pairs))
	}
}

func TestBuilderReuseMatchesFreshBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var bu Builder
	for trial := 0; trial < 50; trial++ {
		nx, ny := 20+rng.Intn(100), 20+rng.Intn(100)
		var bx, by []int
		px, py := 0, 0
		for px < nx-10 && py < ny-10 && rng.Float64() < 0.7 {
			px += 2 + rng.Intn(10)
			py += 2 + rng.Intn(10)
			if px >= nx-1 || py >= ny-1 {
				break
			}
			bx = append(bx, px)
			by = append(by, py)
		}
		al := alignmentWith(nx, ny, bx, by)
		cfg := Config{Strategy: Strategy(2 + rng.Intn(4)), WidthFrac: 0.05 + rng.Float64()*0.3}
		fresh, err := Build(al, cfg)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := bu.Build(al, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fresh.Lo {
			if fresh.Lo[i] != reused.Lo[i] || fresh.Hi[i] != reused.Hi[i] {
				t.Fatalf("trial %d: builder reuse diverged at row %d", trial, i)
			}
		}
	}
}

func TestAllStrategiesProduceUsableBands(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx, ny := 10+rng.Intn(60), 10+rng.Intn(60)
		var bx, by []int
		px, py := 0, 0
		for {
			px += 3 + rng.Intn(8)
			py += 3 + rng.Intn(8)
			if px >= nx-1 || py >= ny-1 {
				break
			}
			bx = append(bx, px)
			by = append(by, py)
		}
		al := alignmentWith(nx, ny, bx, by)
		x := make([]float64, nx)
		y := make([]float64, ny)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		for _, s := range []Strategy{FullGrid, FixedCoreFixedWidth, FixedCoreAdaptiveWidth,
			AdaptiveCoreFixedWidth, AdaptiveCoreAdaptiveWidth, AdaptiveCoreAdaptiveWidthAvg} {
			b, err := Build(al, Config{Strategy: s, WidthFrac: 0.1})
			if err != nil {
				return false
			}
			d, _, err := dtw.Banded(x, y, b)
			if err != nil || math.IsNaN(d) || math.IsInf(d, 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	for w, want := range map[float64]float64{0: 0.10, -1: 0.10, 0.06: 0.06, 1.5: 1} {
		if got := (Config{Strategy: AdaptiveCoreFixedWidth, WidthFrac: w}).withDefaults().WidthFrac; got != want {
			t.Errorf("width %v resolves to %v, want %v", w, got, want)
		}
	}
}

// TestFallbackBand: under (ac,aw) and (ac2,aw) an alignment with no
// boundaries builds dtw.SakoeChiba(n, m, 0.20) bit for bit, on square and
// uneven grids, symmetric or not, from a fresh Builder and from one whose
// scratch an adaptive band left wider; (ac,fw) and (fc,aw) keep their
// own diagonal-core bands at their own widths.
func TestFallbackBand(t *testing.T) {
	grids := [][2]int{{1, 1}, {2, 9}, {8, 8}, {22, 22}, {97, 97}, {150, 150}, {40, 200}, {200, 40}, {96, 128}}
	var warm Builder
	for _, g := range grids {
		n, m := g[0], g[1]
		plain := &match.Alignment{NX: n, NY: m}
		want := dtw.SakoeChiba(n, m, 0.20)
		for _, s := range []Strategy{AdaptiveCoreAdaptiveWidth, AdaptiveCoreAdaptiveWidthAvg} {
			for _, sym := range []bool{false, true} {
				cfg := Config{Strategy: s, Symmetric: sym}
				got, err := Build(plain, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := warm.Build(alignmentWith(300, 300, []int{30, 200}, []int{150, 220}), cfg); err != nil {
					t.Fatal(err)
				}
				inPlace, err := warm.Build(plain, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range []dtw.Band{got, inPlace} {
					if b.M != want.M || !slices.Equal(b.Lo, want.Lo) || !slices.Equal(b.Hi, want.Hi) {
						t.Fatalf("%v sym=%v %dx%d: fallback band %v/%v, want dtw.SakoeChiba %v/%v", s, sym, n, m, b.Lo, b.Hi, want.Lo, want.Hi)
					}
				}
			}
		}
		for _, cfg := range []Config{{Strategy: AdaptiveCoreFixedWidth}, {Strategy: FixedCoreAdaptiveWidth}} {
			var bu Builder
			half := max(bu.rowWidths(plain, cfg.withDefaults())[0]/2, 1)
			lo, hi := make([]int, n), make([]int, n)
			for i := range n {
				c := dtw.DiagonalColumn(i, n, m)
				lo[i], hi[i] = c-half, c+half
			}
			wantOwn := dtw.Band{Lo: lo, Hi: hi, M: m}.Normalize()
			got, err := Build(plain, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Lo, wantOwn.Lo) || !slices.Equal(got.Hi, wantOwn.Hi) {
				t.Fatalf("%v %dx%d: band %v/%v, want its own diagonal band %v/%v", cfg.Strategy, n, m, got.Lo, got.Hi, wantOwn.Lo, wantOwn.Hi)
			}
		}
	}
}

// TestResolvedWidthDecidesTheBand: two configs equal but for WidthFrac
// whose ResolvedWidth agree build the same band on every alignment and
// have the same EnvelopeRadius — what lets a store written under one
// open under the other — and a fixed-width strategy does tell 0.1 from
// 0.2 apart.
func TestResolvedWidthDecidesTheBand(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	widths := []float64{-1, 0, 0.05, 0.1, 0.2, 1, 1.5, 3}
	for trial := 0; trial < 20; trial++ {
		nx, ny := 20+rng.Intn(60), 20+rng.Intn(60)
		var bx, by []int
		for px, py := 3+rng.Intn(8), 3+rng.Intn(8); px < nx-1 && py < ny-1; px, py = px+3+rng.Intn(8), py+3+rng.Intn(8) {
			bx, by = append(bx, px), append(by, py)
		}
		al := alignmentWith(nx, ny, bx, by)
		for s := FullGrid; s <= AdaptiveCoreAdaptiveWidthAvg; s++ {
			for _, sym := range []bool{false, true} {
				for _, w1 := range widths {
					for _, w2 := range widths {
						c1 := Config{Strategy: s, WidthFrac: w1, Symmetric: sym}
						c2 := Config{Strategy: s, WidthFrac: w2, Symmetric: sym}
						r1, ok1 := c1.ResolvedWidth()
						r2, ok2 := c2.ResolvedWidth()
						if ok1 != ok2 || r1 != r2 {
							continue
						}
						b1, err1 := Build(al, c1)
						b2, err2 := Build(al, c2)
						if err1 != nil || err2 != nil {
							t.Fatalf("%v sym=%v: %v, %v", s, sym, err1, err2)
						}
						if !slices.Equal(b1.Lo, b2.Lo) || !slices.Equal(b1.Hi, b2.Hi) || b1.M != b2.M {
							t.Fatalf("%v sym=%v: widths %v and %v resolve alike but build different bands", s, sym, w1, w2)
						}
						if EnvelopeRadius(c1, ny) != EnvelopeRadius(c2, ny) {
							t.Fatalf("%v: widths %v and %v resolve alike but have envelope radii %d and %d",
								s, w1, w2, EnvelopeRadius(c1, ny), EnvelopeRadius(c2, ny))
						}
					}
				}
			}
		}
	}
	for _, s := range []Strategy{FixedCoreFixedWidth, AdaptiveCoreFixedWidth} {
		r1, _ := Config{Strategy: s, WidthFrac: 0.1}.ResolvedWidth()
		r2, _ := Config{Strategy: s, WidthFrac: 0.2}.ResolvedWidth()
		if r1 == r2 {
			t.Fatalf("%v: widths 0.1 and 0.2 both resolve to %v", s, r1)
		}
	}
}
