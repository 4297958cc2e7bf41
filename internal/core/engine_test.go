package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"sdtw/internal/band"
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
	// IDs key the engine's feature cache, so they must be unique per
	// generated pair even when one engine serves many pairs.
	return series.New(fmt.Sprintf("x-%d-%d", seed, n), 0, base),
		series.New(fmt.Sprintf("y-%d-%d", seed, n), 0, warped)
}

func optsFor(s band.Strategy) Options {
	return Options{
		Band:          band.Config{Strategy: s, WidthFrac: 0.10},
		Features:      sift.DefaultConfig(),
		Matcher:       match.DefaultConfig(),
		CacheFeatures: true,
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

func TestEngineCaching(t *testing.T) {
	x, y := makePair(5, 150, 0.3)
	eng := NewEngine(DefaultOptions())
	if eng.CacheSize() != 0 {
		t.Fatal("cache not empty initially")
	}
	if _, err := eng.Distance(x, y); err != nil {
		t.Fatal(err)
	}
	if eng.CacheSize() != 2 {
		t.Fatalf("cache size = %d, want 2", eng.CacheSize())
	}
	// Second call hits the cache: ExtractTime must be ~0.
	res, err := eng.Distance(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExtractTime > res.DPTime*100 && res.ExtractTime.Microseconds() > 500 {
		t.Fatalf("cache miss on second call: extract=%v", res.ExtractTime)
	}
}

func TestEngineUncachedWithoutIDs(t *testing.T) {
	x, y := makePair(6, 150, 0.3)
	x.ID, y.ID = "", ""
	eng := NewEngine(DefaultOptions())
	if _, err := eng.Distance(x, y); err != nil {
		t.Fatal(err)
	}
	if eng.CacheSize() != 0 {
		t.Fatalf("unkeyed series cached: %d entries", eng.CacheSize())
	}
}

func TestEngineCacheDisabled(t *testing.T) {
	x, y := makePair(7, 150, 0.3)
	opts := DefaultOptions()
	opts.CacheFeatures = false
	eng := NewEngine(opts)
	if _, err := eng.Distance(x, y); err != nil {
		t.Fatal(err)
	}
	if eng.CacheSize() != 0 {
		t.Fatal("cache filled although disabled")
	}
}

func TestEngineWarm(t *testing.T) {
	x, y := makePair(8, 150, 0.3)
	eng := NewEngine(DefaultOptions())
	d, err := eng.Warm([]series.Series{x, y})
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("warm reported zero duration")
	}
	if eng.CacheSize() != 2 {
		t.Fatalf("warm cached %d series, want 2", eng.CacheSize())
	}
	res, err := eng.Distance(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExtractTime.Milliseconds() > 50 {
		t.Fatalf("warmed engine still extracting: %v", res.ExtractTime)
	}
}

func TestEngineComputePath(t *testing.T) {
	x, y := makePair(9, 150, 0.3)
	opts := optsFor(band.AdaptiveCoreAdaptiveWidth)
	opts.ComputePath = true
	eng := NewEngine(opts)
	res, err := eng.Distance(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path == nil {
		t.Fatal("no path computed")
	}
	if err := res.Path.Validate(x.Len(), y.Len()); err != nil {
		t.Fatal(err)
	}
	if c := res.Path.Cost(x.Values, y.Values); math.Abs(c-res.Distance) > 1e-9 {
		t.Fatalf("path cost %v != distance %v", c, res.Distance)
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

func TestEngineMinPairsFallback(t *testing.T) {
	// Pure noise series yield no reliable matches; the engine must fall
	// back (Pairs=0 reported) and still return a valid distance.
	rng := rand.New(rand.NewSource(11))
	x := series.New("nx", 0, make([]float64, 120))
	y := series.New("ny", 0, make([]float64, 120))
	for i := range x.Values {
		x.Values[i] = rng.NormFloat64()
		y.Values[i] = rng.NormFloat64()
	}
	opts := optsFor(band.AdaptiveCoreAdaptiveWidth)
	opts.MinPairs = 1000000 // force the fallback
	eng := NewEngine(opts)
	res, err := eng.Distance(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != 0 {
		t.Fatalf("fallback did not reset pairs: %d", res.Pairs)
	}
	full, err := dtw.Distance(x.Values, y.Values, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance < full-1e-9 {
		t.Fatal("fallback underestimates")
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
	if !opts.CacheFeatures {
		t.Fatal("default caching off")
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

// TestEngineDistanceUnderComputePath: path recovery needs the full band,
// so the budget is ignored rather than producing a pathless partial.
func TestEngineDistanceUnderComputePath(t *testing.T) {
	x, y := makePair(11, 120, 0.3)
	opts := optsFor(band.FixedCoreFixedWidth)
	opts.ComputePath = true
	eng := NewEngine(opts)
	res, err := eng.DistanceUnder(x, y, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if res.Abandoned {
		t.Fatal("ComputePath run abandoned")
	}
	if len(res.Path) == 0 {
		t.Fatal("no path recovered")
	}
	if err := res.Path.Validate(x.Len(), y.Len()); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedQueryEqualsDistance: a prepared query answers every
// candidate exactly as the ID-keyed path does — in either orientation of
// a symmetric band — without ever entering the collection cache.
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
		if _, err := e.Warm(cands); err != nil {
			t.Fatal(err)
		}
		cached := e.CacheSize()
		for _, id := range []string{"", "one-off"} {
			x.ID = id
			q, err := e.Prepare(x)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cands {
				got, err := e.DistanceUnderQuery(nil, q, c, math.Inf(1))
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
		if got := e.CacheSize(); got != cached {
			t.Fatalf("symmetric=%v: cache holds %d feature sets after prepared queries, %d before", symmetric, got, cached)
		}
		if got := e.Extractions(); got != int64(len(cands))+2 {
			t.Fatalf("symmetric=%v: %d extractions, want %d (one per candidate, one per Prepare)", symmetric, got, len(cands)+2)
		}
	}
}
