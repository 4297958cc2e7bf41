package sdtw

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func warpedPair(t *testing.T) (Series, Series) {
	t.Helper()
	d := GunDataset(DatasetConfig{Seed: 77, SeriesPerClass: 2})
	return d.Series[0], d.Series[1]
}

func TestDTWBasics(t *testing.T) {
	d, err := DTW([]float64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("DTW self = %v", d)
	}
	if _, err := DTW(nil, []float64{1}); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestDTWPathValid(t *testing.T) {
	x := []float64{0, 0, 1, 1, 0}
	y := []float64{0, 1, 1, 0, 0}
	d, p, err := DTWPath(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(len(x), len(y)); err != nil {
		t.Fatal(err)
	}
	if c := p.Cost(x, y); math.Abs(c-d) > 1e-12 {
		t.Fatalf("path cost %v != distance %v", c, d)
	}
	if _, _, err := DTWPath(nil, y); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestSakoeChibaDTWDominatesFull(t *testing.T) {
	x, y := warpedPair(t)
	full, err := DTW(x.Values, y.Values)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{0.06, 0.1, 0.2, 1.0} {
		banded, err := SakoeChibaDTW(x.Values, y.Values, w)
		if err != nil {
			t.Fatal(err)
		}
		if banded < full-1e-9 {
			t.Fatalf("w=%v: banded %v under full %v", w, banded, full)
		}
	}
	if _, err := SakoeChibaDTW(nil, y.Values, 0.1); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestEngineStrategies(t *testing.T) {
	x, y := warpedPair(t)
	full, err := DTW(x.Values, y.Values)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{FullGrid, FixedCoreFixedWidth, FixedCoreAdaptiveWidth,
		AdaptiveCoreFixedWidth, AdaptiveCoreAdaptiveWidth, AdaptiveCoreAdaptiveWidthAvg} {
		eng := NewEngine(Options{Strategy: s, WidthFrac: 0.1})
		res, err := eng.Distance(x.Values, y.Values)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Distance < full-1e-9 {
			t.Fatalf("%v underestimates", s)
		}
		if s == FullGrid && math.Abs(res.Distance-full) > 1e-9 {
			t.Fatalf("full grid inexact: %v vs %v", res.Distance, full)
		}
	}
}

// TestOutOfRangeStrategyIsAnError: a Strategy outside the six declared
// values (6 named a seventh, since removed) must fail, not fall through
// to some other band.
func TestOutOfRangeStrategyIsAnError(t *testing.T) {
	x, y := warpedPair(t)
	data := []Series{x, y}
	for _, s := range []Strategy{6, 7, 99, -1} {
		opts := Options{Strategy: s}
		if res, err := Distance(x.Values, y.Values, opts); err == nil {
			t.Errorf("Distance under %v returned %v, want an error", s, res.Distance)
		}
		if _, err := NewIndex(data, opts); !errors.Is(err, ErrConfigMismatch) {
			t.Errorf("NewIndex under %v: %v, want ErrConfigMismatch", s, err)
		}
		if _, err := NewShardedIndex(data, 2, opts); !errors.Is(err, ErrConfigMismatch) {
			t.Errorf("NewShardedIndex under %v: %v, want ErrConfigMismatch", s, err)
		}
	}
}

func TestDistanceOneShot(t *testing.T) {
	x, y := warpedPair(t)
	res, err := Distance(x.Values, y.Values, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance <= 0 {
		t.Fatalf("distance = %v", res.Distance)
	}
	if res.CellsGain() <= 0 {
		t.Fatalf("no pruning: %v", res.CellsGain())
	}
}

// TestOptionsPlumbing: every Options extracts with the paper's settings,
// the ones ExtractFeatures uses — 64-bin descriptors, whatever the
// strategy.
func TestOptionsPlumbing(t *testing.T) {
	x, _ := warpedPair(t)
	want, err := ExtractFeatures(x.Values)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no features")
	}
	for _, f := range want {
		if len(f.Descriptor) != 64 {
			t.Fatalf("descriptor length %d, want 64", len(f.Descriptor))
		}
	}
	for _, opts := range []Options{{}, DefaultOptions(), {Strategy: AdaptiveCoreFixedWidth, WidthFrac: 0.20, Symmetric: true}} {
		got, err := NewEngine(opts).Features(x)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: Engine.Features differs from ExtractFeatures", opts)
		}
	}
}

func TestEngineAlign(t *testing.T) {
	x, y := warpedPair(t)
	al, err := NewEngine(DefaultOptions()).Align(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if len(al.BoundsX) != len(al.BoundsY) {
		t.Fatalf("boundary lists differ: %v vs %v", al.BoundsX, al.BoundsY)
	}
}

func TestEngineWarmAndFeatures(t *testing.T) {
	d := GunDataset(DatasetConfig{Seed: 3, SeriesPerClass: 2})
	eng := NewEngine(DefaultOptions())
	if err := eng.Warm(d.Series); err != nil {
		t.Fatal(err)
	}
	feats, err := eng.Features(d.Series[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(feats) == 0 {
		t.Fatal("no features after warm")
	}
}

// TestEngineReusedIDSeesNewValues: an Engine keeps nothing between
// calls, so a series ID reused with other values answers from those
// values, bit for bit as a fresh engine does.
func TestEngineReusedIDSeesNewValues(t *testing.T) {
	d := GunDataset(DatasetConfig{Seed: 21, SeriesPerClass: 4})
	first := NewSeries("q", 0, d.Series[0].Values)
	second := NewSeries("q", 0, d.Series[5].Values)
	y := NewSeries("y", 0, d.Series[2].Values)
	eng := NewEngine(DefaultOptions())
	if _, err := eng.DistanceUnderSeries(first, y, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Features(first); err != nil {
		t.Fatal(err)
	}
	got, err := eng.DistanceUnderSeries(second, y, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewEngine(DefaultOptions()).DistanceUnderSeries(second, y, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Distance) != math.Float64bits(want.Distance) {
		t.Fatalf("reused ID answers %v, a fresh engine %v", got.Distance, want.Distance)
	}
	feats, err := eng.Features(second)
	if err != nil {
		t.Fatal(err)
	}
	wantFeats, err := ExtractFeatures(second.Values)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(feats, wantFeats) {
		t.Fatalf("Features of the reused ID: %d features, want the new series' %d", len(feats), len(wantFeats))
	}
}

func TestSymmetricOptionMakesDistanceSymmetric(t *testing.T) {
	x, y := warpedPair(t)
	opts := DefaultOptions()
	opts.Symmetric = true
	eng := NewEngine(opts)
	dxy, err := eng.Distance(x.Values, y.Values)
	if err != nil {
		t.Fatal(err)
	}
	dyx, err := eng.Distance(y.Values, x.Values)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dxy.Distance-dyx.Distance) > 1e-9*(1+dxy.Distance) {
		t.Fatalf("symmetric distances differ: %v vs %v", dxy.Distance, dyx.Distance)
	}
}

func TestPropertyEstimateNeverBelowFull(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 13, SeriesPerClass: 3})
	eng := NewEngine(DefaultOptions())
	f := func(a, b uint8) bool {
		i := int(a) % d.Len()
		j := int(b) % d.Len()
		full, err := DTW(d.Series[i].Values, d.Series[j].Values)
		if err != nil {
			return false
		}
		res, err := eng.Distance(d.Series[i].Values, d.Series[j].Values)
		if err != nil {
			return false
		}
		return res.Distance >= full-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNewSeries(t *testing.T) {
	s := NewSeries("q", 2, []float64{1, 2})
	if s.ID != "q" || s.Label != 2 || s.Len() != 2 {
		t.Fatalf("NewSeries = %+v", s)
	}
}
