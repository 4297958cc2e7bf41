// Micro-benchmarks for the pipeline stages, the retrieval cascade and the
// streaming monitor, plus ablations for the design choices. The paper's
// tables and figures are cmd/sdtwbench's, asserted by internal/experiments'
// tests; end-to-end performance is benchmark/'s. Custom metrics use the
// paper's units: gains and rates in [0,1].
package sdtw

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sdtw/internal/band"
	"sdtw/internal/core"
	"sdtw/internal/datasets"
	"sdtw/internal/dtw"
	"sdtw/internal/match"
	"sdtw/internal/sift"
)

const benchSeed = 42

// --- Micro-benchmarks: pipeline stages -------------------------------

func benchPair(b *testing.B, name string) (Series, Series) {
	b.Helper()
	d, err := datasets.ByName(name, datasets.Config{Seed: benchSeed, SeriesPerClass: 2})
	if err != nil {
		b.Fatal(err)
	}
	return d.Series[0], d.Series[1]
}

func BenchmarkDTWFullGun150(b *testing.B) {
	x, y := benchPair(b, "Gun")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dtw.Distance(x.Values, y.Values, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDTWFullTrace275(b *testing.B) {
	x, y := benchPair(b, "Trace")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dtw.Distance(x.Values, y.Values, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDTWFullLong1000(b *testing.B) {
	d, err := datasets.ByName("Trace", datasets.Config{Seed: benchSeed, SeriesPerClass: 1, Length: 1000})
	if err != nil {
		b.Fatal(err)
	}
	x := d.Series[0].Values
	y := d.Series[1].Values
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dtw.Distance(x, y, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDTWPathRecovery(b *testing.B) {
	x, y := benchPair(b, "Trace")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dtw.DistanceWithPath(x.Values, y.Values); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBandedSakoeChiba10(b *testing.B) {
	x, y := benchPair(b, "Trace")
	bd := dtw.SakoeChiba(x.Len(), y.Len(), 0.10)
	var ws dtw.Workspace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := dtw.BandedWS(x.Values, y.Values, bd, &ws); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1-float64(bd.Cells())/float64(x.Len()*y.Len()), "cellsgain")
}

func BenchmarkFeatureExtraction(b *testing.B) {
	for _, name := range []string{"Gun", "Trace", "50Words"} {
		b.Run(name, func(b *testing.B) {
			x, _ := benchPair(b, name)
			cfg := sift.DefaultConfig()
			b.ReportAllocs()
			count := 0
			for i := 0; i < b.N; i++ {
				feats, err := sift.Extract(x.Values, cfg)
				if err != nil {
					b.Fatal(err)
				}
				count = len(feats)
			}
			b.ReportMetric(float64(count), "features")
		})
	}
}

func BenchmarkMatching(b *testing.B) {
	for _, name := range []string{"Gun", "Trace", "50Words"} {
		b.Run(name, func(b *testing.B) {
			x, y := benchPair(b, name)
			fx, err := sift.Extract(x.Values, sift.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			fy, err := sift.Extract(y.Values, sift.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			pairs := 0
			for i := 0; i < b.N; i++ {
				al, err := match.Match(fx, fy, x.Len(), y.Len(), match.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				pairs = len(al.Pairs)
			}
			b.ReportMetric(float64(pairs), "pairs")
		})
	}
}

func BenchmarkBandConstruction(b *testing.B) {
	x, y := benchPair(b, "Trace")
	fx, _ := sift.Extract(x.Values, sift.DefaultConfig())
	fy, _ := sift.Extract(y.Values, sift.DefaultConfig())
	al, err := match.Match(fx, fy, x.Len(), y.Len(), match.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var bu band.Builder
	cfg := band.Config{Strategy: band.AdaptiveCoreAdaptiveWidth}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bu.Build(al, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineDistance times one warmed distance per strategy on a
// Trace pair, and the fallback leg on a pair of noise of the Trace length
// whose matching keeps no pair, so (ac,aw) builds its 20 % fallback band.
// bandcells is the band's cell count, the DP's work before abandoning.
// BenchmarkEngineDistance times one warmed distance per strategy on a
// Trace pair, and on a pair of noise of the Trace length whose matching
// keeps no pair, so (ac,aw) builds its 20 % fallback band. bandcells/op is
// the band's cell count, the DP's work when nothing abandons.
func BenchmarkEngineDistance(b *testing.B) {
	type leg struct {
		name     string
		s        band.Strategy
		fallback bool // the noise pair, not the Trace pair
	}
	var legs []leg
	for _, s := range []band.Strategy{
		band.FixedCoreFixedWidth, band.FixedCoreAdaptiveWidth,
		band.AdaptiveCoreFixedWidth, band.AdaptiveCoreAdaptiveWidth,
		band.AdaptiveCoreAdaptiveWidthAvg,
	} {
		legs = append(legs, leg{s.String(), s, false})
	}
	legs = append(legs, leg{"ac,aw/fallback", band.AdaptiveCoreAdaptiveWidth, true})
	for _, l := range legs {
		b.Run(l.name, func(b *testing.B) {
			x, y := benchPair(b, "Trace")
			if l.fallback {
				rng := rand.New(rand.NewSource(5))
				for i := range x.Values {
					x.Values[i], y.Values[i] = rng.NormFloat64(), rng.NormFloat64()
				}
			}
			opts := core.DefaultOptions()
			opts.Band.Strategy = l.s
			opts.Band.WidthFrac = 0.10
			engine := core.NewEngine(opts)
			feats, _, err := engine.Warm([]Series{x, y})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var res core.Result
			for i := 0; i < b.N; i++ {
				if res, err = engine.DistanceUnderFeatures(nil, x, feats[0], y, feats[1], math.Inf(1)); err != nil {
					b.Fatal(err)
				}
			}
			if l.fallback && res.Pairs != 0 {
				b.Fatalf("the noise pair keeps %d salient pairs: it does not fall back", res.Pairs)
			}
			b.ReportMetric(res.CellsGain(), "cellsgain")
			b.ReportMetric(float64(res.BandCells), "bandcells/op")
		})
	}
}

// BenchmarkSubsequenceSearch measures open-begin/open-end subsequence
// DTW over a long stream.
func BenchmarkSubsequenceSearch(b *testing.B) {
	d, err := datasets.ByName("Gun", datasets.Config{Seed: benchSeed, SeriesPerClass: 1})
	if err != nil {
		b.Fatal(err)
	}
	query := d.Series[0].Values
	stream := make([]float64, 0, 4096)
	for len(stream) < 4096 {
		stream = append(stream, d.Series[1].Values...)
	}
	eng := NewEngine(Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Subsequence(query, stream[:4096]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorPush measures the streaming monitor's per-point cost —
// the acceptance gate is zero allocations per pushed point after warm-up
// (O(|q|) state, no per-point growth). The 32x128 rows are the one-point
// multi-query shape: with default workers it must not lose to workers=1,
// because a single point carries too little work to fan out.
func BenchmarkMonitorPush(b *testing.B) {
	query, stream := streamWorkload(b, "Gun", 4, 10_000)
	grid := monitorGrid(b)
	cases := []struct {
		name    string
		queries []Series
		mopts   []MonitorOption
	}{
		{"1x150", []Series{NewSeries("q", 0, query)}, nil},
		{"32x128", grid, nil},
		{"32x128/workers=1", grid, []MonitorOption{WithMonitorWorkers(1)}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			m, err := NewMonitor(tc.queries, Options{}, tc.mopts...)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			for _, v := range stream[:512] { // warm-up before measuring
				if _, err := m.Push(ctx, v); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Push(ctx, stream[i%len(stream)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := m.Stats()
			b.ReportMetric(float64(st.Cells)/float64(st.Points), "cells/point")
		})
	}
}

// BenchmarkMonitorPushBatch measures the batched streaming path with
// multi-query fan-out across the worker pool.
func BenchmarkMonitorPushBatch(b *testing.B) {
	d, err := datasets.ByName("Trace", datasets.Config{Seed: benchSeed, SeriesPerClass: 2})
	if err != nil {
		b.Fatal(err)
	}
	_, stream := streamWorkload(b, "Trace", 2, 1<<15)
	m, err := NewMonitor(d.Series[:4], Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off := (i * 4096) % (len(stream) - 4096)
		if _, err := m.PushBatch(ctx, stream[off:off+4096]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Retrieval and ablation benchmarks --------------------------------

// BenchmarkIndexTopKCascade measures the Index's cascaded parallel top-k
// retrieval on a Table-1-style Trace workload: candidates ordered by
// LB_Kim, pruned by LB_Kim then envelope LB_Keogh against the shared
// best-so-far threshold, survivors fanned out over the worker pool. The
// prunerate metric is the fraction of candidates whose DP work the
// cascade skipped entirely; cellsgain additionally counts the sDTW band's
// savings on the survivors.
func BenchmarkIndexTopKCascade(b *testing.B) {
	d, err := datasets.ByName("Trace", datasets.Config{Seed: benchSeed, SeriesPerClass: 15})
	if err != nil {
		b.Fatal(err)
	}
	configs := []struct {
		name string
		opts Options
	}{
		{"sakoe-chiba-10", Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10}},
		{"ac-aw", DefaultOptions()},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			ix, err := NewIndex(d.Series, cfg.opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			// Aggregate over every iteration so the reported metrics do
			// not depend on which query b.N happens to end on.
			var stats SearchStats
			for i := 0; i < b.N; i++ {
				_, s, err := ix.Search(context.Background(), d.Series[i%d.Len()], WithK(5))
				if err != nil {
					b.Fatal(err)
				}
				stats.Merge(s)
			}
			b.ReportMetric(stats.PruneRate(), "prunerate")
			b.ReportMetric(stats.CellsGain(), "cellsgain")
			b.ReportMetric(stats.AbandonRate(), "abandonrate")
		})
	}
}

// BenchmarkIndexTopKBatch measures the whole-dataset batch entry point:
// every indexed series queried against the collection in one call.
func BenchmarkIndexTopKBatch(b *testing.B) {
	d, err := datasets.ByName("Trace", datasets.Config{Seed: benchSeed, SeriesPerClass: 10})
	if err != nil {
		b.Fatal(err)
	}
	ix, err := NewIndex(d.Series, Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var stats SearchStats
	for i := 0; i < b.N; i++ {
		_, s, err := ix.SearchBatch(context.Background(), d.Series, WithK(5))
		if err != nil {
			b.Fatal(err)
		}
		stats = s
	}
	b.ReportMetric(stats.PruneRate(), "prunerate")
	b.ReportMetric(stats.CellsGain(), "cellsgain")
	b.ReportMetric(stats.AbandonRate(), "abandonrate")
}

// BenchmarkIndexClassifyAll measures leave-one-out kNN classification of
// the whole collection through the cascaded batch path.
func BenchmarkIndexClassifyAll(b *testing.B) {
	d, err := datasets.ByName("Gun", datasets.Config{Seed: benchSeed, SeriesPerClass: 10})
	if err != nil {
		b.Fatal(err)
	}
	ix, err := NewIndex(d.Series, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	correct := 0
	for i := 0; i < b.N; i++ {
		labels, _, err := ix.LabelsAll(context.Background(), WithK(3))
		if err != nil {
			b.Fatal(err)
		}
		correct = 0
		for j, ls := range labels {
			for _, l := range ls {
				if l == d.Series[j].Label {
					correct++
					break
				}
			}
		}
	}
	b.ReportMetric(float64(correct)/float64(d.Len()), "accuracy")
}

// BenchmarkBoundedTopK measures exact windowed-DTW retrieval with the
// LB_Kim/LB_Keogh cascade (Keogh's exact-indexing pipeline, paper ref [7]).
func BenchmarkBoundedTopK(b *testing.B) {
	b.Run("trace", func(b *testing.B) {
		d, err := datasets.ByName("Trace", datasets.Config{Seed: benchSeed, SeriesPerClass: 10})
		if err != nil {
			b.Fatal(err)
		}
		ix, err := NewWindowedIndex(d.Series, 15)
		if err != nil {
			b.Fatal(err)
		}
		benchSearches(b, ix, d.Series)
	})
	// The knn-bounds geometry: 20 000 Trace series at length 128 under a
	// radius-3 window, where the sketch stage prunes most candidates and
	// the cascade's own ordering is a large share of a query. Every 201st
	// series is held out as a query.
	b.Run("20000x128-r3", func(b *testing.B) {
		d := TraceDataset(DatasetConfig{Seed: benchSeed, SeriesPerClass: 5025, Length: 128})
		var coll, queries []Series
		for i, s := range d.Series {
			if i%201 == 200 {
				queries = append(queries, s)
			} else {
				coll = append(coll, s)
			}
		}
		ix, err := NewWindowedIndex(coll, 3)
		if err != nil {
			b.Fatal(err)
		}
		benchSearches(b, ix, queries, WithWorkers(1))
	})
}

// benchSearches runs top-5 searches of ix over queries in turn and
// reports the last search's prune and abandon rates.
func benchSearches(b *testing.B, ix *Index, queries []Series, opts ...SearchOption) {
	b.Helper()
	opts = append(opts, WithK(5))
	b.ReportAllocs()
	b.ResetTimer()
	var stats SearchStats
	for i := 0; i < b.N; i++ {
		_, s, err := ix.Search(context.Background(), queries[i%len(queries)], opts...)
		if err != nil {
			b.Fatal(err)
		}
		stats = s
	}
	b.ReportMetric(stats.PruneRate(), "prunerate")
	b.ReportMetric(stats.AbandonRate(), "abandonrate")
}

// BenchmarkAblationNeighborRadius varies the ac2 width-averaging radius,
// the design choice behind the paper's (ac2,aw) variant.
func BenchmarkAblationNeighborRadius(b *testing.B) {
	x, y := benchPair(b, "Trace")
	full, err := dtw.Distance(x.Values, y.Values, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Band.Strategy = band.AdaptiveCoreAdaptiveWidthAvg
			opts.Band.NeighborRadius = r
			engine := core.NewEngine(opts)
			feats, _, err := engine.Warm([]Series{x, y})
			if err != nil {
				b.Fatal(err)
			}
			var res core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = engine.DistanceUnderFeatures(nil, x, feats[0], y, feats[1], math.Inf(1))
				if err != nil {
					b.Fatal(err)
				}
			}
			if full > 0 {
				b.ReportMetric((res.Distance-full)/full, "disterr")
			}
			b.ReportMetric(res.CellsGain(), "cellsgain")
		})
	}
}

// BenchmarkAblationSymmetricBand measures the cost of the §3.3.3
// symmetric band union against the default asymmetric band.
func BenchmarkAblationSymmetricBand(b *testing.B) {
	for _, sym := range []bool{false, true} {
		b.Run(fmt.Sprintf("symmetric=%v", sym), func(b *testing.B) {
			x, y := benchPair(b, "Trace")
			opts := core.DefaultOptions()
			opts.Band.Symmetric = sym
			engine := core.NewEngine(opts)
			feats, _, err := engine.Warm([]Series{x, y})
			if err != nil {
				b.Fatal(err)
			}
			var res core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = engine.DistanceUnderFeatures(nil, x, feats[0], y, feats[1], math.Inf(1))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.CellsGain(), "cellsgain")
		})
	}
}

// BenchmarkAblationFeatureCap varies the per-series feature cap, the
// knob that keeps matching cheap relative to the grid fill (§3.4).
func BenchmarkAblationFeatureCap(b *testing.B) {
	for _, cap := range []int{16, 48, 128} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			x, y := benchPair(b, "50Words")
			opts := core.DefaultOptions()
			opts.Features.MaxFeatures = cap
			engine := core.NewEngine(opts)
			feats, _, err := engine.Warm([]Series{x, y})
			if err != nil {
				b.Fatal(err)
			}
			var res core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = engine.DistanceUnderFeatures(nil, x, feats[0], y, feats[1], math.Inf(1))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Pairs), "pairs")
			b.ReportMetric(res.CellsGain(), "cellsgain")
		})
	}
}

// BenchmarkAblationEpsilon varies the relaxed-extremum slack ε, the
// detector's sensitivity knob (§3.1.2; see the calibration note in
// internal/sift).
func BenchmarkAblationEpsilon(b *testing.B) {
	for _, eps := range []float64{0.0096, 0.10, 0.30} {
		b.Run(fmt.Sprintf("eps=%v", eps), func(b *testing.B) {
			x, _ := benchPair(b, "Gun")
			cfg := sift.DefaultConfig()
			cfg.Epsilon = eps
			cfg.MaxFeatures = -1
			count := 0
			for i := 0; i < b.N; i++ {
				feats, err := sift.Extract(x.Values, cfg)
				if err != nil {
					b.Fatal(err)
				}
				count = len(feats)
			}
			b.ReportMetric(float64(count), "features")
		})
	}
}
