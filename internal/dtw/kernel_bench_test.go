package dtw_test

import (
	"math"
	"math/rand"
	"testing"

	"sdtw/internal/core"
	"sdtw/internal/datasets"
	"sdtw/internal/dtw"
)

// benchCase is one (x, y, band) triple of the kernel benchmark.
type benchCase struct {
	x, y []float64
	band dtw.Band
}

// engineBands builds the (ac,aw) bands core.Engine commits for a few
// cross- and same-class pairs of a paper data set at the given length —
// the shapes retrieval actually hands the kernel (drifting cores, widths
// that change row to row), which no synthetic Sakoe-Chiba band has.
func engineBands(b testing.TB, name string, length int) []benchCase {
	b.Helper()
	d, err := datasets.ByName(name, datasets.Config{Seed: 42, SeriesPerClass: 2, Length: length})
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.KeepBand = true
	engine := core.NewEngine(opts)
	var cases []benchCase
	q := d.Series[0]
	for _, c := range d.Series[1:] {
		if len(cases) == 6 {
			break
		}
		res, err := engine.Distance(q, c)
		if err != nil {
			b.Fatal(err)
		}
		cases = append(cases, benchCase{x: q.Values, y: c.Values, band: res.Band})
	}
	return cases
}

// BenchmarkBandedKernel measures the budgeted banded DP on the band
// shapes the workloads run: the historical 275×275 Sakoe-Chiba 10 % band
// (budget +Inf), real (ac,aw) bands from
// core.Engine on the three paper data sets, and the radius-3 window of
// the windowed backend. Each real shape runs at budget +Inf (whole band,
// no row minimum needed), at a finite budget that never abandons (the
// exact distance: what a retrieval candidate that enters the top k costs,
// and the most pruning a completed DP gets) and at a tight one (half the
// distance: a candidate that abandons). It reports cells/op, the cells
// the kernel filled under that budget, and ns/cell over those — so
// pruning shows as fewer cells, not as cheaper ones, and the per-cell
// price of finding the live range stays visible.
func BenchmarkBandedKernel(b *testing.B) {
	run := func(b *testing.B, cases []benchCase, budgetShare float64) {
		b.Helper()
		var ws dtw.Workspace
		budgets := make([]float64, len(cases))
		cells := 0
		for i, c := range cases {
			d, _, err := dtw.BandedWS(c.x, c.y, c.band, &ws)
			if err != nil {
				b.Fatal(err)
			}
			budgets[i] = d * budgetShare
			_, n, abandoned, err := dtw.BandedAbandonWS(c.x, c.y, c.band, nil, budgets[i], &ws)
			if err != nil || abandoned != (budgetShare < 1) {
				b.Fatal(err, abandoned)
			}
			cells += n
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k, c := range cases {
				if _, _, _, err := dtw.BandedAbandonWS(c.x, c.y, c.band, nil, budgets[k], &ws); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(cells), "cells/op")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cells), "ns/cell")
	}

	rng := rand.New(rand.NewSource(29))
	randomSeries := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()*2 - 1
		}
		return v
	}
	sakoe := []benchCase{{x: randomSeries(275), y: randomSeries(275), band: dtw.SakoeChiba(275, 275, 0.10)}}
	b.Run("Sakoe275/inf", func(b *testing.B) { run(b, sakoe, math.Inf(1)) })

	shapes := []struct {
		name  string
		cases []benchCase
	}{
		{"Trace1024", engineBands(b, "Trace", 1024)},
		{"50Words270", engineBands(b, "50Words", 270)},
		{"Gun150", engineBands(b, "Gun", 150)},
		{"window3x128", nil},
	}
	// 64 distinct pairs: one small pair repeated b.N times lets the branch
	// predictor learn the per-row loop's every comparison.
	for range 64 {
		w := &shapes[len(shapes)-1]
		w.cases = append(w.cases, benchCase{x: randomSeries(128), y: randomSeries(128), band: dtw.SakoeChibaRadius(128, 128, 3)})
	}
	for _, s := range shapes {
		b.Run(s.name+"/inf", func(b *testing.B) { run(b, s.cases, math.Inf(1)) })
		b.Run(s.name+"/finite", func(b *testing.B) { run(b, s.cases, 1) })
		b.Run(s.name+"/tight", func(b *testing.B) { run(b, s.cases, 0.5) })
	}
}

// TestBandedAbandonWSAllocs pins the kernel's workspace contract: with a
// warmed Workspace a call allocates nothing — on the radius-3 window (the
// per-row path) and on a real (ac,aw) band (the strip path, five row
// buffers where there were two), whether it runs to the end under a +Inf
// budget, under a finite one that prunes it (the distance itself, and
// half as much again) or abandons.
func TestBandedAbandonWSAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	narrow := benchCase{x: oracleSeries(rng, 128), y: oracleSeries(rng, 128), band: dtw.SakoeChibaRadius(128, 128, 3)}
	wide := engineBands(t, "Trace", 256)[1]
	if dtw.StripRowsOf(narrow.band) != 0 || dtw.StripRowsOf(wide.band) < wide.band.N()/2 {
		t.Fatalf("the window must run per row and the (ac,aw) band mostly in strips: %d and %d of %d rows in strips",
			dtw.StripRowsOf(narrow.band), dtw.StripRowsOf(wide.band), wide.band.N())
	}
	for name, c := range map[string]benchCase{"radius-3 window": narrow, "(ac,aw) band": wide} {
		var ws dtw.Workspace
		exact, _, err := dtw.BandedWS(c.x, c.y, c.band, &ws)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []float64{math.Inf(1), exact * 1.5, exact, exact / 8} {
			wantAbandoned := budget < exact
			allocs := testing.AllocsPerRun(20, func() {
				if _, _, abandoned, err := dtw.BandedAbandonWS(c.x, c.y, c.band, nil, budget, &ws); err != nil || abandoned != wantAbandoned {
					t.Fatalf("%s under budget %v: abandoned %v, err %v", name, budget, abandoned, err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s under budget %v (abandons: %v): %v allocs per call with a warmed workspace, want 0", name, budget, wantAbandoned, allocs)
			}
		}
	}
}
