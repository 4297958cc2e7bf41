package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"sdtw/internal/band"
	"sdtw/internal/datasets"
	"sdtw/internal/dtw"
	"sdtw/internal/match"
	"sdtw/internal/series"
	"sdtw/internal/sift"
)

// makePair builds a structured series and a warped copy of it.
func makePair(seed int64, n int, warpStrength float64) (series.Series, series.Series) {
	rng := rand.New(rand.NewSource(seed))
	base := make([]float64, n)
	for i := range base {
		x := float64(i)
		base[i] = series.GaussianBump(x, float64(n)*0.25, float64(n)*0.04, 1) +
			series.GaussianBump(x, float64(n)*0.55, float64(n)*0.06, -0.7) +
			series.GaussianBump(x, float64(n)*0.8, float64(n)*0.03, 0.9)
	}
	warped := series.ApplyWarp(base, series.RandomWarp(rng, 4, warpStrength), n)
	warped = series.AddNoise(rng, warped, 0.01)
	// IDs are unique per generated pair.
	return series.New(fmt.Sprintf("x-%d-%d", seed, n), 0, base),
		series.New(fmt.Sprintf("y-%d-%d", seed, n), 0, warped)
}

func optsFor(s band.Strategy) Options {
	return Options{
		Band:     band.Config{Strategy: s, WidthFrac: 0.10},
		Features: sift.DefaultConfig(),
		Matcher:  match.DefaultConfig(),
	}
}

func TestEngineDistanceMatchesFullDTWOnFullGrid(t *testing.T) {
	x, y := makePair(1, 180, 0.3)
	eng := NewEngine(optsFor(band.FullGrid))
	res, err := eng.Distance(x, y)
	if err != nil {
		t.Fatal(err)
	}
	full, err := dtw.Distance(x.Values, y.Values, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Distance-full) > 1e-9 {
		t.Fatalf("full-grid engine %v != DTW %v", res.Distance, full)
	}
	if res.CellsFilled != 180*180 {
		t.Fatalf("full grid cells = %d", res.CellsFilled)
	}
	if res.CellsGain() != 0 {
		t.Fatalf("full grid gain = %v, want 0", res.CellsGain())
	}
}

func TestEngineNeverUnderestimates(t *testing.T) {
	strategies := []band.Strategy{
		band.FixedCoreFixedWidth, band.FixedCoreAdaptiveWidth,
		band.AdaptiveCoreFixedWidth, band.AdaptiveCoreAdaptiveWidth,
		band.AdaptiveCoreAdaptiveWidthAvg,
	}
	for seed := int64(0); seed < 8; seed++ {
		x, y := makePair(seed, 150, 0.4)
		full, err := dtw.Distance(x.Values, y.Values, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range strategies {
			eng := NewEngine(optsFor(s))
			res, err := eng.Distance(x, y)
			if err != nil {
				t.Fatalf("%v: %v", s, err)
			}
			if res.Distance < full-1e-9 {
				t.Fatalf("%v underestimates: %v < %v", s, res.Distance, full)
			}
		}
	}
}

func TestEngineAdaptiveTracksWarp(t *testing.T) {
	// The paper's headline claim, in miniature: on warped copies with
	// clear features, (ac,aw) estimates the DTW distance better than the
	// fixed Sakoe-Chiba band at 10% width, while still pruning a healthy
	// share of the grid. Absolute relative errors are unstable here
	// because the reference distances are noise-level, so the adaptive
	// and fixed estimates are compared on the same pairs.
	adaptiveSum, fixedSum, gainSum := 0.0, 0.0, 0.0
	const trials = 10
	adaptive := NewEngine(optsFor(band.AdaptiveCoreAdaptiveWidth))
	fixed := NewEngine(optsFor(band.FixedCoreFixedWidth))
	for seed := int64(0); seed < trials; seed++ {
		x, y := makePair(seed+100, 200, 0.35)
		resA, err := adaptive.Distance(x, y)
		if err != nil {
			t.Fatal(err)
		}
		resF, err := fixed.Distance(x, y)
		if err != nil {
			t.Fatal(err)
		}
		adaptiveSum += resA.Distance
		fixedSum += resF.Distance
		gainSum += resA.CellsGain()
	}
	if adaptiveSum >= fixedSum {
		t.Fatalf("(ac,aw) no better than (fc,fw): %v vs %v", adaptiveSum, fixedSum)
	}
	if avg := gainSum / trials; avg < 0.3 {
		t.Fatalf("mean (ac,aw) cells gain %v too low", avg)
	}
}

func TestEngineSelfDistanceZero(t *testing.T) {
	x, _ := makePair(3, 160, 0.3)
	for _, s := range []band.Strategy{band.FixedCoreFixedWidth, band.AdaptiveCoreAdaptiveWidth} {
		eng := NewEngine(optsFor(s))
		res, err := eng.Distance(x, x)
		if err != nil {
			t.Fatal(err)
		}
		if res.Distance > 1e-9 {
			t.Fatalf("%v: self distance = %v", s, res.Distance)
		}
	}
}

func TestEngineEmptyInputRejected(t *testing.T) {
	eng := NewEngine(DefaultOptions())
	if _, err := eng.Distance(series.Series{}, series.Series{Values: []float64{1}}); err == nil {
		t.Fatal("empty x accepted")
	}
}

func TestEngineWarm(t *testing.T) {
	x, y := makePair(8, 150, 0.3)
	eng := NewEngine(DefaultOptions())
	feats, d, err := eng.Warm([]series.Series{x, y})
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("warm reported zero duration")
	}
	if len(feats) != 2 || len(feats[0]) == 0 || len(feats[1]) == 0 {
		t.Fatalf("warm returned %d feature sets, want 2 non-empty", len(feats))
	}
	if got := eng.Extractions(); got != 2 {
		t.Fatalf("warm ran %d extractions, want 2", got)
	}
	held, err := eng.DistanceUnderFeatures(nil, x, feats[0], y, feats[1], math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if held.ExtractTime != 0 || eng.Extractions() != 2 {
		t.Fatalf("held features still extracted: %v, %d extractions", held.ExtractTime, eng.Extractions())
	}
	direct, err := eng.Distance(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(held.Distance) != math.Float64bits(direct.Distance) {
		t.Fatalf("held features give %v, direct call %v", held.Distance, direct.Distance)
	}
	if direct.ExtractTime <= 0 || eng.Extractions() != 4 {
		t.Fatalf("direct call: extract time %v, %d extractions, want > 0 and 4", direct.ExtractTime, eng.Extractions())
	}

	fixed := NewEngine(optsFor(band.FixedCoreFixedWidth))
	feats, d, err = fixed.Warm([]series.Series{x, y})
	if err != nil {
		t.Fatal(err)
	}
	if len(feats) != 2 || feats[0] != nil || feats[1] != nil || d != 0 || fixed.Extractions() != 0 {
		t.Fatalf("(fc,fw) warm: %d sets, %v, %d extractions; want 2 nil sets, nothing extracted", len(feats), d, fixed.Extractions())
	}
}

func TestEngineKeepBand(t *testing.T) {
	x, y := makePair(10, 150, 0.3)
	opts := optsFor(band.AdaptiveCoreAdaptiveWidth)
	opts.KeepBand = true
	eng := NewEngine(opts)
	res, err := eng.Distance(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.Band.N() != x.Len() || res.Band.M != y.Len() {
		t.Fatalf("kept band shape (%d,%d)", res.Band.N(), res.Band.M)
	}
	if res.Band.Cells() != res.CellsFilled {
		t.Fatalf("band cells %d != filled %d", res.Band.Cells(), res.CellsFilled)
	}
	// Without KeepBand the band must be zero (not retained).
	opts.KeepBand = false
	res2, err := NewEngine(opts).Distance(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Band.N() != 0 {
		t.Fatal("band retained although KeepBand=false")
	}
}

// noisePair returns two series of pure noise, 120 points each. Noise
// yields few reliable matches: at this seed the raw alignment keeps
// exactly one pair, below the minPairs floor.
func noisePair() (series.Series, series.Series) {
	const n = 120
	rng := rand.New(rand.NewSource(4))
	x := series.New("nx", 0, make([]float64, n))
	y := series.New("ny", 0, make([]float64, n))
	for i := range x.Values {
		x.Values[i] = rng.NormFloat64()
		y.Values[i] = rng.NormFloat64()
	}
	return x, y
}

func TestEngineMinPairsFallback(t *testing.T) {
	// The noise pair keeps one pair, so the engine must fall back to the
	// unpartitioned alignment's band — under (ac,aw), the (fc,fw) band at
	// 20 % — report Pairs=0 and still return a valid distance.
	x, y := noisePair()
	n := x.Len()
	opts := optsFor(band.AdaptiveCoreAdaptiveWidth)
	opts.KeepBand = true
	eng := NewEngine(opts)
	fx, err := eng.Extract(x)
	if err != nil {
		t.Fatal(err)
	}
	fy, err := eng.Extract(y)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := match.Match(fx, fy, n, n, opts.Matcher)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Pairs) != 1 {
		t.Fatalf("raw alignment keeps %d pairs, want 1", len(raw.Pairs))
	}
	res, err := eng.Distance(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != 0 {
		t.Fatalf("fallback did not reset pairs: %d", res.Pairs)
	}
	want, err := band.Build(&match.Alignment{NX: n, NY: n}, opts.Band)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Band, want) {
		t.Fatalf("band is not the unpartitioned alignment's: %d cells, want %d", res.Band.Cells(), want.Cells())
	}
	full, err := dtw.Distance(x.Values, y.Values, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance < full-1e-9 {
		t.Fatal("fallback underestimates")
	}
}

// TestEngineFallbackAllocatesNothing: under (ac,aw) and (ac2,aw),
// symmetric or not, a warmed distance on a pair that falls back to the
// 20 % band allocates nothing beyond what matching allocates for the
// alignment it returns: the band is filled in the pooled builder's
// scratch, and no stand-in alignment is made.
func TestEngineFallbackAllocatesNothing(t *testing.T) {
	x, y := noisePair()
	for _, s := range []band.Strategy{band.AdaptiveCoreAdaptiveWidth, band.AdaptiveCoreAdaptiveWidthAvg} {
		for _, sym := range []bool{false, true} {
			opts := optsFor(s)
			opts.Band.Symmetric = sym
			eng := NewEngine(opts)
			fx, err := eng.Extract(x)
			if err != nil {
				t.Fatal(err)
			}
			fy, err := eng.Extract(y)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.DistanceUnderFeatures(nil, x, fx, y, fy, math.Inf(1))
			if err != nil {
				t.Fatal(err)
			}
			if want := dtw.SakoeChiba(x.Len(), y.Len(), 0.20).Cells(); res.Pairs != 0 || res.BandCells != want {
				t.Fatalf("%v sym=%v: %d pairs, %d band cells, want the fallback's 0 and %d", s, sym, res.Pairs, res.BandCells, want)
			}
			var mws match.Workspace
			matching := testing.AllocsPerRun(100, func() {
				if _, err := match.MatchWS(fx, fy, x.Len(), y.Len(), opts.Matcher, &mws); err != nil {
					t.Fatal(err)
				}
			})
			distance := testing.AllocsPerRun(100, func() {
				if _, err := eng.DistanceUnderFeatures(nil, x, fx, y, fy, math.Inf(1)); err != nil {
					t.Fatal(err)
				}
			})
			if distance != matching && !raceEnabled {
				t.Errorf("%v sym=%v: %v allocs per distance, %v of them matching's: the fallback allocates %v, want 0",
					s, sym, distance, matching, distance-matching)
			}
		}
	}
}

// TestEngineAdaptiveBandAllocatesNothing: under every strategy that reads
// the alignment, a warmed distance on a matched Trace pair allocates no
// more than matching does for the alignment it returns: the band reads
// the interval partition straight from the alignment's boundaries and is
// filled in the pooled builder's scratch.
func TestEngineAdaptiveBandAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled workspaces, so they are not reliably warm")
	}
	d := datasets.Trace(datasets.Config{Seed: 1, SeriesPerClass: 2})
	x, y := d.Series[0], d.Series[1]
	for _, s := range []band.Strategy{band.FixedCoreAdaptiveWidth, band.AdaptiveCoreFixedWidth,
		band.AdaptiveCoreAdaptiveWidth, band.AdaptiveCoreAdaptiveWidthAvg} {
		eng := NewEngine(optsFor(s))
		fx, err := eng.Extract(x)
		if err != nil {
			t.Fatal(err)
		}
		fy, err := eng.Extract(y)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.DistanceUnderFeatures(nil, x, fx, y, fy, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		if res.Pairs < minPairs {
			t.Fatalf("%v: the pair keeps %d salient pairs, want a matched pair", s, res.Pairs)
		}
		var mws match.Workspace
		matching := testing.AllocsPerRun(100, func() {
			if _, err := match.MatchWS(fx, fy, x.Len(), y.Len(), eng.opts.Matcher, &mws); err != nil {
				t.Fatal(err)
			}
		})
		distance := testing.AllocsPerRun(100, func() {
			if _, err := eng.DistanceUnderFeatures(nil, x, fx, y, fy, math.Inf(1)); err != nil {
				t.Fatal(err)
			}
		})
		if distance > matching {
			t.Errorf("%v: %v allocs per distance, %v of them matching's: the band allocates %v, want 0",
				s, distance, matching, distance-matching)
		}
	}
}

func TestEngineConcurrentUse(t *testing.T) {
	x, y := makePair(12, 180, 0.3)
	eng := NewEngine(DefaultOptions())
	want, err := eng.Distance(x, y)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				res, err := eng.Distance(x, y)
				if err != nil {
					errs <- err
					return
				}
				if math.Abs(res.Distance-want.Distance) > 1e-9 {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestEngineAlign(t *testing.T) {
	x, y := makePair(13, 200, 0.3)
	eng := NewEngine(DefaultOptions())
	al, err := eng.Align(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if al.NX != 200 || al.NY != 200 {
		t.Fatalf("alignment lengths (%d,%d)", al.NX, al.NY)
	}
	if len(al.Pairs) == 0 {
		t.Fatal("no pairs between series and its warped copy")
	}
}

func TestEngineTimingFieldsPopulated(t *testing.T) {
	x, y := makePair(14, 200, 0.3)
	eng := NewEngine(optsFor(band.AdaptiveCoreAdaptiveWidth))
	res, err := eng.Distance(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.DPTime <= 0 {
		t.Fatal("DPTime not measured")
	}
	if res.MatchTime <= 0 {
		t.Fatal("MatchTime not measured")
	}
	if res.GridCells != 200*200 {
		t.Fatalf("GridCells = %d", res.GridCells)
	}
	// Non-adaptive strategies must not pay matching costs.
	res2, err := NewEngine(optsFor(band.FixedCoreFixedWidth)).Distance(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res2.MatchTime != 0 || res2.ExtractTime != 0 {
		t.Fatalf("fixed strategy measured match/extract time: %v %v", res2.MatchTime, res2.ExtractTime)
	}
}

func TestEnginePropertyEstimateAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		size := int(seed % 7)
		if size < 0 {
			size = -size
		}
		x, y := makePair(seed, 80+size*20, 0.5)
		eng := NewEngine(optsFor(band.AdaptiveCoreAdaptiveWidthAvg))
		res, err := eng.Distance(x, y)
		if err != nil {
			return false
		}
		return !math.IsNaN(res.Distance) && !math.IsInf(res.Distance, 0) && res.Distance >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultOptions(t *testing.T) {
	opts := DefaultOptions()
	if opts.Band.Strategy != band.AdaptiveCoreAdaptiveWidth {
		t.Fatalf("default strategy = %v", opts.Band.Strategy)
	}
	eng := NewEngine(opts)
	if eng.Options().Band.Strategy != band.AdaptiveCoreAdaptiveWidth {
		t.Fatal("Options() does not round-trip")
	}
}

// TestEngineDistanceUnder pins the threshold-aware entry point: an
// infinite budget is bit-identical to Distance, a tight budget abandons
// with a partial distance that lower-bounds the true one while skipping
// band cells, and a budget at the true distance (exclusive) never
// abandons. Exercised across strategies so every band builder feeds the
// abandoning DP.
func TestEngineDistanceUnder(t *testing.T) {
	strategies := []band.Strategy{
		band.FullGrid, band.FixedCoreFixedWidth, band.AdaptiveCoreAdaptiveWidth,
	}
	for _, s := range strategies {
		t.Run(s.String(), func(t *testing.T) {
			x, y := makePair(7, 160, 0.3)
			eng := NewEngine(optsFor(s))
			full, err := eng.Distance(x, y)
			if err != nil {
				t.Fatal(err)
			}
			if full.Abandoned {
				t.Fatal("Distance reported an abandoned computation")
			}
			if full.BandCells != full.CellsFilled {
				t.Fatalf("full run filled %d cells of a %d-cell band", full.CellsFilled, full.BandCells)
			}
			inf, err := eng.DistanceUnder(x, y, math.Inf(1))
			if err != nil {
				t.Fatal(err)
			}
			if inf.Abandoned || inf.Distance != full.Distance || inf.CellsFilled != full.CellsFilled {
				t.Fatalf("budget=+Inf diverges from Distance: %+v vs %+v", inf, full)
			}
			at, err := eng.DistanceUnder(x, y, full.Distance)
			if err != nil {
				t.Fatal(err)
			}
			if at.Abandoned || at.Distance != full.Distance {
				t.Fatalf("budget at the true distance abandoned: %+v", at)
			}
			tight, err := eng.DistanceUnder(x, y, full.Distance*0.05)
			if err != nil {
				t.Fatal(err)
			}
			if !tight.Abandoned {
				t.Fatalf("budget %v did not abandon (distance %v)", full.Distance*0.05, full.Distance)
			}
			if tight.Distance <= full.Distance*0.05 {
				t.Fatalf("partial %v not above budget %v", tight.Distance, full.Distance*0.05)
			}
			if tight.Distance > full.Distance+1e-9*(1+math.Abs(full.Distance)) {
				t.Fatalf("partial %v exceeds true distance %v", tight.Distance, full.Distance)
			}
			if tight.CellsFilled >= tight.BandCells {
				t.Fatalf("abandoned run filled the whole band: %d of %d", tight.CellsFilled, tight.BandCells)
			}
		})
	}
}

// TestEngineDistanceUnderSymmetric checks the symmetric canonicalisation
// also governs the threshold-aware path: both orientations run the
// identical computation, abandoned or not.
func TestEngineDistanceUnderSymmetric(t *testing.T) {
	x, y := makePair(9, 140, 0.3)
	opts := optsFor(band.AdaptiveCoreAdaptiveWidth)
	opts.Band.Symmetric = true
	eng := NewEngine(opts)
	full, err := eng.Distance(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []float64{math.Inf(1), full.Distance * 0.1} {
		a, err := eng.DistanceUnder(x, y, budget)
		if err != nil {
			t.Fatal(err)
		}
		b, err := eng.DistanceUnder(y, x, budget)
		if err != nil {
			t.Fatal(err)
		}
		if a.Distance != b.Distance || a.Abandoned != b.Abandoned || a.CellsFilled != b.CellsFilled {
			t.Fatalf("budget %v: orientations diverge: %+v vs %+v", budget, a, b)
		}
	}
}

// TestPreparedQueryEqualsDistance: a query whose features the caller
// extracted and holds answers every candidate exactly as Distance does —
// in either orientation of a symmetric band — whatever its ID.
func TestPreparedQueryEqualsDistance(t *testing.T) {
	for _, symmetric := range []bool{false, true} {
		opts := optsFor(band.AdaptiveCoreAdaptiveWidth)
		opts.Band.Symmetric = symmetric
		ref, e := NewEngine(opts), NewEngine(opts)
		x, _ := makePair(31, 180, 0.3)
		var cands []series.Series
		for seed := int64(32); seed < 38; seed++ {
			_, y := makePair(seed, 150+int(seed), 0.3) // shorter and longer than x
			cands = append(cands, y)
		}
		feats, _, err := e.Warm(cands)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"", "one-off"} {
			x.ID = id
			fx, err := e.Extract(x)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range cands {
				got, err := e.DistanceUnderFeatures(nil, x, fx, c, feats[i], math.Inf(1))
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Distance(x, c)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got.Distance) != math.Float64bits(want.Distance) ||
					got.CellsFilled != want.CellsFilled || got.Pairs != want.Pairs {
					t.Fatalf("symmetric=%v id=%q → %s: prepared (%v, %d cells, %d pairs) vs direct (%v, %d cells, %d pairs)",
						symmetric, id, c.ID, got.Distance, got.CellsFilled, got.Pairs, want.Distance, want.CellsFilled, want.Pairs)
				}
			}
		}
		if got := e.Extractions(); got != int64(len(cands))+2 {
			t.Fatalf("symmetric=%v: %d extractions, want %d (one per candidate, one per Extract)", symmetric, got, len(cands)+2)
		}
	}
}

// TestEngineFixedBandPerGrid pins the fixed-band path: under FullGrid and
// (fc,fw), sized by a fraction or by a window, DistanceUnderFeatures
// allocates nothing per call once its workspace holds the band of the
// grid, and a workspace that meets grids of alternating shapes answers
// each bit for bit as a band built fresh for that grid does.
func TestEngineFixedBandPerGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	walk := func(n int) series.Series {
		v := make([]float64, n)
		for i := 1; i < n; i++ {
			v[i] = v[i-1] + rng.NormFloat64()
		}
		return series.New("", 0, v)
	}
	grids := [][2]int{{128, 128}, {96, 128}, {128, 96}, {40, 200}, {128, 128}, {7, 7}}
	for _, cfg := range []band.Config{
		{Strategy: band.FullGrid},
		{Strategy: band.FixedCoreFixedWidth, WidthFrac: 0.10},
		band.Window(3),
	} {
		eng := NewEngine(Options{Band: cfg})
		x, y := walk(128), walk(128)
		call := func() {
			if _, err := eng.DistanceUnderFeatures(nil, x, nil, y, nil, math.Inf(1)); err != nil {
				t.Fatal(err)
			}
		}
		call()
		if allocs := testing.AllocsPerRun(100, call); allocs != 0 && !raceEnabled {
			t.Errorf("%v: %v allocs per call at n = m = 128, want 0", cfg.Strategy, allocs)
		}

		var ws dtw.Workspace
		for round := 0; round < 3; round++ {
			for _, g := range grids {
				x, y := walk(g[0]), walk(g[1])
				b, err := band.Build(&match.Alignment{NX: g[0], NY: g[1]}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				full, _, _, err := dtw.BandedAbandonWS(x.Values, y.Values, b, nil, math.Inf(1), &ws)
				if err != nil {
					t.Fatal(err)
				}
				for _, budget := range []float64{math.Inf(1), full / 2} {
					want, cells, abandoned, err := dtw.BandedAbandonWS(x.Values, y.Values, b, nil, budget, &ws)
					if err != nil {
						t.Fatal(err)
					}
					got, err := eng.DistanceUnderFeatures(nil, x, nil, y, nil, budget)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got.Distance) != math.Float64bits(want) || got.CellsFilled != cells ||
						got.Abandoned != abandoned || got.BandCells != b.Cells() {
						t.Fatalf("%v %dx%d budget %v: engine (%v, %d cells, abandoned %v, band %d), fresh band (%v, %d, %v, %d)",
							cfg.Strategy, g[0], g[1], budget, got.Distance, got.CellsFilled, got.Abandoned, got.BandCells,
							want, cells, abandoned, b.Cells())
					}
				}
			}
		}
	}
}

// TestAdaptiveBandRebuiltInPlace: an adaptive band is rebuilt for every
// pair into the same builder buffers of the engine's pooled workspace,
// with rows of other widths each time, and the fallback band of a pair
// whose matching found too little is filled into the same buffers. The
// DP must read each band's own rows, never a width an earlier band left
// behind: pair by pair, in rounds, the engine's distance, cells and
// abandoned flag equal the DP over a band built afresh from the same
// alignment. Under the 20 % width floor every row of these matched pairs
// is at the floor, so their widest rows differ by grid.
func TestAdaptiveBandRebuiltInPlace(t *testing.T) {
	opts := optsFor(band.AdaptiveCoreAdaptiveWidth)
	eng := NewEngine(opts)
	type pair struct {
		x, y   series.Series
		fx, fy []sift.Feature
	}
	var pairs []pair
	for _, g := range []struct {
		seed int64
		n    int // 0: the noise pair, which falls back, on a 120² grid
		warp float64
	}{{30, 128, 0.05}, {31, 128, 0.45}, {32, 200, 0.2}, {33, 96, 0.6}, {}, {35, 128, 0.3}} {
		x, y := noisePair()
		if g.n > 0 {
			x, y = makePair(g.seed, g.n, g.warp)
		}
		fx, err := eng.Extract(x)
		if err != nil {
			t.Fatal(err)
		}
		fy, err := eng.Extract(y)
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, pair{x, y, fx, fy})
	}
	var ws dtw.Workspace
	widths := map[int]bool{}
	fellBack := map[bool]bool{}
	for round := 0; round < 3; round++ {
		for i, p := range pairs {
			al, err := match.Match(p.fx, p.fy, p.x.Len(), p.y.Len(), opts.Matcher)
			if err != nil {
				t.Fatal(err)
			}
			fellBack[len(al.Pairs) < 2] = true
			if len(al.Pairs) < 2 {
				al = &match.Alignment{NX: p.x.Len(), NY: p.y.Len()}
			}
			b, err := band.Build(al, opts.Band)
			if err != nil {
				t.Fatal(err)
			}
			widest := 0
			for r := range b.Lo {
				widest = max(widest, b.Hi[r]-b.Lo[r]+1)
			}
			widths[widest] = true
			full, _, _, err := dtw.BandedAbandonWS(p.x.Values, p.y.Values, b, nil, math.Inf(1), &ws)
			if err != nil {
				t.Fatal(err)
			}
			for _, budget := range []float64{math.Inf(1), full / 2} {
				want, cells, abandoned, err := dtw.BandedAbandonWS(p.x.Values, p.y.Values, b, nil, budget, &ws)
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.DistanceUnderFeatures(nil, p.x, p.fx, p.y, p.fy, budget)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got.Distance) != math.Float64bits(want) || got.CellsFilled != cells ||
					got.Abandoned != abandoned || got.BandCells != b.Cells() {
					t.Fatalf("round %d pair %d budget %v: engine (%v, %d cells, abandoned %v, band %d), fresh band (%v, %d, %v, %d)",
						round, i, budget, got.Distance, got.CellsFilled, got.Abandoned, got.BandCells,
						want, cells, abandoned, b.Cells())
				}
			}
		}
	}
	if len(widths) < 3 {
		t.Fatalf("the pairs' bands have %d distinct widest rows, want >= 3 for the rebuild to change widths", len(widths))
	}
	if !fellBack[true] || !fellBack[false] {
		t.Fatalf("fallback seen %v, want both a pair that falls back and one that does not", fellBack)
	}
}
