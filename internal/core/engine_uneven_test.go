package core

import (
	"testing"

	"sdtw/internal/band"
	"sdtw/internal/dtw"
	"sdtw/internal/series"
)

// TestEngineUnequalLengths exercises every strategy on N != M pairs: the
// paper's grid is N×M throughout, and the band machinery must handle
// rectangular grids (interval interpolation, diagonal scaling, width
// fractions of M).
func TestEngineUnequalLengths(t *testing.T) {
	x, _ := makePair(200, 180, 0.35)
	_, y := makePair(201, 260, 0.35)
	full, err := dtw.Distance(x.Values, y.Values, nil)
	if err != nil {
		t.Fatal(err)
	}
	strategies := []band.Strategy{
		band.FullGrid, band.FixedCoreFixedWidth, band.FixedCoreAdaptiveWidth,
		band.AdaptiveCoreFixedWidth, band.AdaptiveCoreAdaptiveWidth,
		band.AdaptiveCoreAdaptiveWidthAvg,
	}
	for _, s := range strategies {
		eng := NewEngine(optsFor(s))
		res, err := eng.Distance(x, y)
		if err != nil {
			t.Fatalf("%v on 180x260: %v", s, err)
		}
		if res.Distance < full-1e-9 {
			t.Fatalf("%v underestimates on rectangular grid", s)
		}
		if res.GridCells != 180*260 {
			t.Fatalf("%v grid cells = %d", s, res.GridCells)
		}
		// And the transposed direction.
		res2, err := eng.Distance(y, x)
		if err != nil {
			t.Fatalf("%v on 260x180: %v", s, err)
		}
		if res2.Distance < full-1e-9 {
			t.Fatalf("%v underestimates transposed", s)
		}
	}
}

// TestEngineShortSeries exercises the minimum lengths the scale space
// accepts and verifies the adaptive fallback below it.
func TestEngineShortSeries(t *testing.T) {
	eng := NewEngine(DefaultOptions())
	x := series.New("short-x", 0, []float64{1, 2, 3, 2, 1, 0, 1, 2})
	y := series.New("short-y", 0, []float64{1, 2, 3, 3, 2, 1, 0, 1})
	res, err := eng.Distance(x, y)
	if err != nil {
		t.Fatalf("length-8 series rejected: %v", err)
	}
	full, err := dtw.Distance(x.Values, y.Values, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance < full-1e-9 {
		t.Fatal("short-series estimate underestimates")
	}
	// Below the scale-space minimum, extraction fails and the engine
	// must surface the error rather than crash.
	tiny := series.New("tiny", 0, []float64{1, 2})
	if _, err := eng.Distance(tiny, y); err == nil {
		t.Fatal("sub-minimum series accepted by adaptive strategy")
	}
	// The full grid has no feature dependency and must still work.
	exact := NewEngine(optsFor(band.FullGrid))
	if _, err := exact.Distance(tiny, y); err != nil {
		t.Fatalf("full grid rejected tiny series: %v", err)
	}
}
