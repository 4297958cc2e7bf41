// Benchmark suite regenerating the paper's evaluation (one benchmark per
// table and figure, reporting the paper's measures via b.ReportMetric),
// plus micro-benchmarks for the pipeline stages and ablations for the
// design choices called out in DESIGN.md.
//
// Figure-level benchmarks run the Small workload scale so the whole suite
// finishes in minutes; cmd/sdtwbench reproduces the same experiments at
// full scale. Custom metrics use the papers' units: accuracy and gains in
// [0,1], distance errors as relative over-estimation.
package sdtw

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sdtw/internal/band"
	"sdtw/internal/core"
	"sdtw/internal/datasets"
	"sdtw/internal/dtw"
	"sdtw/internal/experiments"
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
		if _, err := dtw.DistanceWithPath(x.Values, y.Values, nil); err != nil {
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
		if _, _, err := dtw.BandedWS(x.Values, y.Values, bd, nil, &ws); err != nil {
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

func BenchmarkEngineDistance(b *testing.B) {
	strategies := []band.Strategy{
		band.FixedCoreFixedWidth, band.FixedCoreAdaptiveWidth,
		band.AdaptiveCoreFixedWidth, band.AdaptiveCoreAdaptiveWidth,
		band.AdaptiveCoreAdaptiveWidthAvg,
	}
	for _, s := range strategies {
		b.Run(s.String(), func(b *testing.B) {
			x, y := benchPair(b, "Trace")
			opts := core.DefaultOptions()
			opts.Band.Strategy = s
			opts.Band.WidthFrac = 0.10
			engine := core.NewEngine(opts)
			if _, err := engine.Warm([]Series{x, y}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			gain := 0.0
			for i := 0; i < b.N; i++ {
				res, err := engine.Distance(x, y)
				if err != nil {
					b.Fatal(err)
				}
				gain = res.CellsGain()
			}
			b.ReportMetric(gain, "cellsgain")
		})
	}
}

// --- Table benchmarks -------------------------------------------------

// BenchmarkTable1DatasetGeneration regenerates the three workloads at
// paper scale (Table 1).
func BenchmarkTable1DatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(experiments.Full, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("unexpected row count")
		}
	}
}

// BenchmarkTable2SalientFeatureExtraction reproduces Table 2: average
// salient point counts per scale class, at full workload scale.
func BenchmarkTable2SalientFeatureExtraction(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table2(experiments.Full, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Total, "feat/series:"+r.Dataset)
	}
}

// --- Figure benchmarks ------------------------------------------------

// reportAlgoMetrics publishes a result row's paper measures. Metric units
// must not contain whitespace, so algorithm labels like "fc,fw 10%" are
// compacted.
func reportAlgoMetrics(b *testing.B, r experiments.AlgoResult, fields ...string) {
	name := strings.ReplaceAll(r.Algorithm, " ", "")
	for _, f := range fields {
		switch f {
		case "top5":
			b.ReportMetric(r.Top5Acc, "top5:"+name)
		case "top10":
			b.ReportMetric(r.Top10Acc, "top10:"+name)
		case "disterr":
			b.ReportMetric(r.DistErr, "disterr:"+name)
		case "intra":
			b.ReportMetric(r.IntraClassErr, "intraerr:"+name)
		case "cls5":
			b.ReportMetric(r.Cls5Acc, "cls5:"+name)
		case "timegain":
			b.ReportMetric(r.TimeGain, "timegain:"+name)
		case "cellsgain":
			b.ReportMetric(r.CellsGain, "cellsgain:"+name)
		case "matchshare":
			b.ReportMetric(r.MatchShare, "matchshare:"+name)
		}
	}
}

// keyAlgorithms picks the rows most indicative of the paper's findings,
// keeping benchmark output readable.
func keyAlgorithms(results []experiments.AlgoResult) []experiments.AlgoResult {
	want := map[string]bool{"fc,fw 10%": true, "fc,aw": true, "ac,fw 10%": true, "ac,aw": true, "ac2,aw": true}
	var out []experiments.AlgoResult
	for _, r := range results {
		if want[r.Algorithm] {
			out = append(out, r)
		}
	}
	return out
}

// BenchmarkFig13RetrievalAccuracy reproduces Fig 13: top-5/top-10
// retrieval accuracy and time gain per algorithm per data set.
func BenchmarkFig13RetrievalAccuracy(b *testing.B) {
	for _, name := range []string{"Gun", "Trace", "50Words"} {
		b.Run(name, func(b *testing.B) {
			var results []experiments.AlgoResult
			for i := 0; i < b.N; i++ {
				var err error
				results, err = experiments.Fig13(name, experiments.Small, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, r := range keyAlgorithms(results) {
				reportAlgoMetrics(b, r, "top5", "timegain")
			}
		})
	}
}

// BenchmarkFig14DistanceError reproduces Fig 14: distance error versus
// time gain per algorithm per data set, read off the Fig 13 grid (the two
// figures plot different columns of the same evaluation).
func BenchmarkFig14DistanceError(b *testing.B) {
	for _, name := range []string{"Gun", "Trace", "50Words"} {
		b.Run(name, func(b *testing.B) {
			var results []experiments.AlgoResult
			for i := 0; i < b.N; i++ {
				var err error
				results, err = experiments.Fig13(name, experiments.Small, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, r := range keyAlgorithms(results) {
				reportAlgoMetrics(b, r, "disterr", "cellsgain")
			}
		})
	}
}

// BenchmarkFig15IntraClassError reproduces Fig 15: intra-class distance
// errors on the 4-class Trace workload.
func BenchmarkFig15IntraClassError(b *testing.B) {
	var results []experiments.AlgoResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = experiments.Fig15(experiments.Small, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range keyAlgorithms(results) {
		reportAlgoMetrics(b, r, "intra")
	}
}

// BenchmarkFig16Classification reproduces Fig 16: kNN classification
// agreement on the 50-class 50Words workload.
func BenchmarkFig16Classification(b *testing.B) {
	var results []experiments.AlgoResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = experiments.Fig16(experiments.Small, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range keyAlgorithms(results) {
		reportAlgoMetrics(b, r, "cls5", "timegain")
	}
}

// BenchmarkFig17TimeBreakdown reproduces Fig 17: the matching versus
// dynamic-programming share of per-pair work for adaptive algorithms.
func BenchmarkFig17TimeBreakdown(b *testing.B) {
	var results []experiments.AlgoResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = experiments.Fig17("Trace", experiments.Small, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		reportAlgoMetrics(b, r, "matchshare")
	}
}

// BenchmarkFig18DescriptorLength reproduces Fig 18: the impact of the
// descriptor length on error, accuracy and speedup (reduced to two sweep
// points per run; cmd/sdtwbench sweeps the paper's full 4–128 range).
func BenchmarkFig18DescriptorLength(b *testing.B) {
	for _, bins := range []int{8, 64} {
		b.Run(fmt.Sprintf("bins=%d", bins), func(b *testing.B) {
			var points []experiments.Fig18Point
			for i := 0; i < b.N; i++ {
				var err error
				points, err = experiments.Fig18("Gun", experiments.Small, benchSeed, []int{bins})
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, p := range points {
				reportAlgoMetrics(b, p.Result, "disterr", "top10")
			}
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

// BenchmarkLearnedBaseline trains the R-K style learned band and
// classifies a holdout, the §1 training-dependent alternative.
func BenchmarkLearnedBaseline(b *testing.B) {
	var rows []experiments.BaselineRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.LearnedBaseline(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.HoldoutAccuracy, "holdout:"+strings.ReplaceAll(r.Method, " ", ""))
	}
}

// BenchmarkNoiseRobustness measures the §3.1.2 noise-robustness sweep.
func BenchmarkNoiseRobustness(b *testing.B) {
	var rows []experiments.NoiseRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.NoiseRobustness(benchSeed, []float64{0.01, 0.05})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.PairSurvival, fmt.Sprintf("pairsurvival:sigma=%g", r.Sigma))
	}
}

// BenchmarkExtrasComparison runs the extension comparison (Itakura,
// symmetric union, FastDTW, multi-resolution ∩ sDTW) on the small Gun
// workload.
func BenchmarkExtrasComparison(b *testing.B) {
	var rows []experiments.ExtraRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Extras("Gun", experiments.Small, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.DistErr, "disterr:"+strings.ReplaceAll(r.Method, " ", ""))
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
		{"itakura", Options{Strategy: ItakuraBand}},
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
	d, err := datasets.ByName("Trace", datasets.Config{Seed: benchSeed, SeriesPerClass: 10})
	if err != nil {
		b.Fatal(err)
	}
	ix, err := NewWindowedIndex(d.Series, 15)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var stats SearchStats
	for i := 0; i < b.N; i++ {
		_, s, err := ix.Search(context.Background(), d.Series[i%d.Len()], WithK(5))
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
			if _, err := engine.Warm([]Series{x, y}); err != nil {
				b.Fatal(err)
			}
			var res core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = engine.Distance(x, y)
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
			if _, err := engine.Warm([]Series{x, y}); err != nil {
				b.Fatal(err)
			}
			var res core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = engine.Distance(x, y)
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
			if _, err := engine.Warm([]Series{x, y}); err != nil {
				b.Fatal(err)
			}
			var res core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = engine.Distance(x, y)
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
