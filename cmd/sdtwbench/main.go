// Command sdtwbench regenerates the tables and figures of the sDTW paper
// (Candan et al., VLDB 2012) on the synthetic reproduction workloads.
//
// Usage:
//
//	sdtwbench -exp all                 # every table and figure, full scale
//	sdtwbench -exp fig13 -scale small  # one experiment, reduced workload
//	sdtwbench -exp fig18 -dataset Gun  # restrict figures to one data set
//	sdtwbench -exp stream -scale small # streaming subsequence monitor throughput
//	sdtwbench -exp kernel -short       # specialized-vs-generic kernel A/B smoke
//	sdtwbench -exp serve -short        # sharded HTTP search service latency/QPS
//	sdtwbench -exp bands               # ASCII rendering of the band shapes
//
// Experiments: table1, table2, fig13, fig14, fig15, fig16, fig17, fig18,
// noise, invariance, baseline, extras, retrieval, stream, kernel, serve,
// bands, all. Scales: full (paper sizes), medium, small; -short forces the small
// scale and trims measurement budgets for CI smoke lanes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sdtw"
	"sdtw/internal/experiments"
)

func main() {
	var (
		exp            = flag.String("exp", "all", "experiment to run: table1, table2, fig13, fig14, fig15, fig16, fig17, fig18, noise, invariance, baseline, extras, retrieval, stream, kernel, serve, bands, all")
		scale          = flag.String("scale", "full", "workload scale: full, medium, small")
		short          = flag.Bool("short", false, "CI smoke mode: force the small scale and trim measurement budgets")
		dataset        = flag.String("dataset", "", "restrict per-dataset figures to one data set (Gun, Trace, 50Words)")
		seed           = flag.Int64("seed", 42, "workload generator seed")
		jsonOut        = flag.String("json", "BENCH_retrieval.json", "path for the machine-readable retrieval results (empty disables)")
		streamOut      = flag.String("streamjson", "BENCH_stream.json", "path for the machine-readable streaming-monitor results (empty disables)")
		streamBaseline = flag.String("streambaseline", "", "committed BENCH_stream.json to gate fleet throughput, prefilter skip rate and match-latency p99 against (empty disables)")
		streamRegress  = flag.Float64("streammaxregress", 0, "fail if fleet throughput drops below baseline divided by this factor (or p99 latency exceeds baseline times it), e.g. 1.5 (0 disables)")
		kernelOut      = flag.String("kerneljson", "BENCH_kernel.json", "path for the machine-readable kernel A/B results (empty disables)")
		kernelMin      = flag.Float64("kernelmin", 0, "fail if any specialized/generic kernel throughput ratio drops below this floor (0 disables)")

		serveOut      = flag.String("servejson", "BENCH_serve.json", "path for the machine-readable serving results (empty disables)")
		serveShards   = flag.Int("serveshards", 4, "shard count for the serving benchmark")
		serveBaseline = flag.String("servebaseline", "", "committed BENCH_serve.json to gate p99 latency against (empty disables)")
		serveRegress  = flag.Float64("servemaxregress", 0, "fail if any p99 exceeds its baseline by more than this factor, e.g. 1.2 (0 disables)")
	)
	flag.Parse()

	if *short {
		*scale = "small"
	}
	sc, err := parseScale(*scale)
	if err != nil {
		fatal(err)
	}
	names := []string{"Gun", "Trace", "50Words"}
	if *dataset != "" {
		names = []string{*dataset}
	}

	run := func(name string, fn func() error) {
		fmt.Printf("=== %s ===\n", name)
		start := time.Now()
		if err := fn(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Printf("(%s in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	want := func(id string) bool { return *exp == "all" || *exp == id }
	ran := false

	if want("table1") {
		ran = true
		run("Table 1: data set overview", func() error {
			rows, err := experiments.Table1(sc, *seed)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderTable1(rows))
			return nil
		})
	}
	if want("table2") {
		ran = true
		run("Table 2: salient points per scale", func() error {
			rows, err := experiments.Table2(sc, *seed)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderTable2(rows))
			return nil
		})
	}
	if want("fig13") || want("fig14") {
		ran = true
		for _, name := range names {
			name := name
			run("Fig 13/14: retrieval accuracy & distance error on "+name, func() error {
				results, err := experiments.Fig13(name, sc, *seed)
				if err != nil {
					return err
				}
				fmt.Print(experiments.RenderFig13(results))
				fmt.Println()
				fmt.Print(experiments.RenderFig14(results))
				return nil
			})
		}
	}
	if want("fig15") {
		ran = true
		run("Fig 15: intra-class distance errors (Trace)", func() error {
			results, err := experiments.Fig15(sc, *seed)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderFig15(results))
			return nil
		})
	}
	if want("fig16") {
		ran = true
		run("Fig 16: classification accuracy (50Words)", func() error {
			results, err := experiments.Fig16(sc, *seed)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderFig16(results))
			return nil
		})
	}
	if want("fig17") {
		ran = true
		for _, name := range names {
			name := name
			run("Fig 17: matching vs DP time breakdown on "+name, func() error {
				results, err := experiments.Fig17(name, sc, *seed)
				if err != nil {
					return err
				}
				fmt.Print(experiments.RenderFig17(results))
				return nil
			})
		}
	}
	if want("fig18") {
		ran = true
		for _, name := range names {
			name := name
			run("Fig 18: descriptor length sweep on "+name, func() error {
				points, err := experiments.Fig18(name, sc, *seed, nil)
				if err != nil {
					return err
				}
				fmt.Print(experiments.RenderFig18(points))
				return nil
			})
		}
	}
	if want("baseline") {
		ran = true
		run("Learned (R-K) vs structural constraints (§1)", func() error {
			rows, err := experiments.LearnedBaseline(*seed)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderBaseline(rows))
			return nil
		})
	}
	if want("noise") {
		ran = true
		run("Noise robustness of salient features (§3.1.2)", func() error {
			rows, err := experiments.NoiseRobustness(*seed, nil)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderNoise(rows))
			return nil
		})
	}
	if want("invariance") {
		ran = true
		run("Amplitude-invariance ablation (§3.1.2)", func() error {
			rows, err := experiments.Invariance(*seed)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderInvariance(rows))
			return nil
		})
	}
	if want("extras") {
		ran = true
		for _, name := range names {
			name := name
			run("Extras: Itakura, symmetric, FastDTW, combination on "+name, func() error {
				rows, err := experiments.Extras(name, sc, *seed)
				if err != nil {
					return err
				}
				fmt.Print(experiments.RenderExtras(name, rows))
				return nil
			})
		}
	}
	if want("retrieval") {
		ran = true
		var entries []retrievalEntry
		for _, name := range names {
			name := name
			run("Cascaded k-NN retrieval (LB_Kim -> LB_Keogh -> abandoning sDTW) on "+name, func() error {
				out, rows, err := runRetrieval(name, sc, *seed)
				if err != nil {
					return err
				}
				entries = append(entries, rows...)
				fmt.Print(out)
				return nil
			})
		}
		if *jsonOut != "" {
			if err := writeRetrievalJSON(*jsonOut, entries); err != nil {
				fatal(err)
			}
			fmt.Printf("machine-readable results written to %s\n\n", *jsonOut)
		}
	}
	if want("stream") {
		ran = true
		var entries []streamEntry
		for _, name := range names {
			name := name
			run("Streaming subsequence monitor (SPRING) on "+name, func() error {
				out, rows, err := runStream(name, sc, *seed)
				if err != nil {
					return err
				}
				entries = append(entries, rows...)
				fmt.Print(out)
				return nil
			})
		}
		run("Fleet streaming: Hub vs one-Monitor-per-stream grid", func() error {
			out, rows, err := runHubStream(sc, *seed)
			if err != nil {
				return err
			}
			entries = append(entries, rows...)
			fmt.Print(out)
			return nil
		})
		if *streamOut != "" {
			if err := writeStreamJSON(*streamOut, entries); err != nil {
				fatal(err)
			}
			fmt.Printf("machine-readable results written to %s\n\n", *streamOut)
		}
		if err := checkStreamBaseline(entries, *streamBaseline, *streamRegress); err != nil {
			fatal(err)
		}
	}
	if want("kernel") {
		ran = true
		budget := 300 * time.Millisecond
		if *short {
			budget = 60 * time.Millisecond
		}
		kernelNames := []string{"Gun", "Trace"}
		if *dataset != "" {
			kernelNames = []string{*dataset}
		}
		var entries []kernelEntry
		for _, name := range kernelNames {
			name := name
			run("Kernel A/B: monomorphized vs generic hot loops on "+name, func() error {
				out, rows, err := runKernel(name, sc, *seed, budget)
				if err != nil {
					return err
				}
				entries = append(entries, rows...)
				fmt.Print(out)
				return nil
			})
		}
		if *kernelOut != "" {
			if err := writeKernelJSON(*kernelOut, entries); err != nil {
				fatal(err)
			}
			fmt.Printf("machine-readable results written to %s\n\n", *kernelOut)
		}
		if err := checkKernelFloor(entries, *kernelMin); err != nil {
			fatal(err)
		}
	}
	if want("serve") {
		ran = true
		serveNames := []string{"Trace"}
		if *dataset != "" {
			serveNames = []string{*dataset}
		}
		var entries []serveEntry
		for _, name := range serveNames {
			name := name
			run("Sharded HTTP search service (sdtwd path) on "+name, func() error {
				out, rows, err := runServe(name, sc, *seed, *serveShards)
				if err != nil {
					return err
				}
				entries = append(entries, rows...)
				fmt.Print(out)
				return nil
			})
		}
		if *serveOut != "" {
			if err := writeServeJSON(*serveOut, entries); err != nil {
				fatal(err)
			}
			fmt.Printf("machine-readable results written to %s\n\n", *serveOut)
		}
		if err := checkServeBaseline(entries, *serveBaseline, *serveRegress); err != nil {
			fatal(err)
		}
	}
	if want("bands") {
		ran = true
		run("Band shapes (Fig 2/10)", func() error {
			out, err := experiments.RenderBandShapes(*seed)
			if err != nil {
				return err
			}
			fmt.Print(out)
			return nil
		})
	}
	if !ran {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
}

// retrievalEntry is one row of the machine-readable retrieval results:
// per dataset and band strategy, the cascade's stage counts, the saving
// rates, and the wall time — the numbers CI tracks across PRs.
type retrievalEntry struct {
	Dataset      string  `json:"dataset"`
	Algorithm    string  `json:"algorithm"`
	SeriesCount  int     `json:"series"`
	Length       int     `json:"length"`
	Candidates   int     `json:"candidates"`
	PrunedSketch int     `json:"pruned_sketch"`
	PrunedKim    int     `json:"pruned_kim"`
	PrunedKeogh  int     `json:"pruned_keogh"`
	Evaluated    int     `json:"evaluated"`
	AbandonedDTW int     `json:"abandoned_dtw"`
	CellsSaved   int     `json:"cells_saved"`
	PruneRate    float64 `json:"prune_rate"`
	CellsGain    float64 `json:"cells_gain"`
	AbandonRate  float64 `json:"abandon_rate"`
	WallMS       float64 `json:"wall_ms"`
}

// writeRetrievalJSON persists the retrieval entries for machines (CI
// trend lines) next to the human-readable tables on stdout.
func writeRetrievalJSON(path string, entries []retrievalEntry) error {
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding retrieval results: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing retrieval results: %w", err)
	}
	return nil
}

// runRetrieval exercises the Index's lower-bound-cascaded batch retrieval
// on one workload: every series queried against the collection, per band
// strategy, reporting how many candidates each cascade stage discarded,
// how many dynamic programs abandoned early, and the DP work that
// remained.
func runRetrieval(name string, sc experiments.Scale, seed int64) (string, []retrievalEntry, error) {
	d, err := experiments.LoadDataset(name, sc, seed)
	if err != nil {
		return "", nil, err
	}
	configs := []struct {
		label string
		opts  sdtw.Options
	}{
		{"fc,fw 10%", sdtw.Options{Strategy: sdtw.FixedCoreFixedWidth, WidthFrac: 0.10}},
		{"fc,fw 20%", sdtw.Options{Strategy: sdtw.FixedCoreFixedWidth, WidthFrac: 0.20}},
		{"itakura", sdtw.Options{Strategy: sdtw.ItakuraBand}},
		{"ac,aw", sdtw.DefaultOptions()},
	}
	var sb strings.Builder
	var entries []retrievalEntry
	fmt.Fprintf(&sb, "%s: %d series x len %d, k=5, all-series batch queries\n",
		d.Name, d.Len(), d.Length)
	fmt.Fprintf(&sb, "%-10s %10s %10s %10s %10s %10s %10s %9s %9s %9s %12s\n",
		"algorithm", "candidates", "lb_paa", "lb_kim", "lb_keogh", "evaluated", "abandoned", "prune", "cellsgain", "abandon", "wall")
	for _, cfg := range configs {
		ix, err := sdtw.NewIndex(d.Series, cfg.opts)
		if err != nil {
			return "", nil, fmt.Errorf("indexing %s under %s: %w", d.Name, cfg.label, err)
		}
		_, stats, err := ix.SearchBatch(context.Background(), d.Series, sdtw.WithK(5))
		if err != nil {
			return "", nil, fmt.Errorf("batch retrieval on %s under %s: %w", d.Name, cfg.label, err)
		}
		fmt.Fprintf(&sb, "%-10s %10d %10d %10d %10d %10d %10d %8.1f%% %8.1f%% %8.1f%% %12v\n",
			cfg.label, stats.Candidates, stats.PrunedSketch, stats.PrunedKim, stats.PrunedKeogh, stats.Evaluated,
			stats.AbandonedDTW, 100*stats.PruneRate(), 100*stats.CellsGain(),
			100*stats.AbandonRate(), stats.WallTime.Round(time.Millisecond))
		entries = append(entries, retrievalEntry{
			Dataset:      d.Name,
			Algorithm:    cfg.label,
			SeriesCount:  d.Len(),
			Length:       d.Length,
			Candidates:   stats.Candidates,
			PrunedSketch: stats.PrunedSketch,
			PrunedKim:    stats.PrunedKim,
			PrunedKeogh:  stats.PrunedKeogh,
			Evaluated:    stats.Evaluated,
			AbandonedDTW: stats.AbandonedDTW,
			CellsSaved:   stats.CellsSaved,
			PruneRate:    stats.PruneRate(),
			CellsGain:    stats.CellsGain(),
			AbandonRate:  stats.AbandonRate(),
			WallMS:       float64(stats.WallTime.Microseconds()) / 1000,
		})
	}
	return sb.String(), entries, nil
}

// streamEntry is one row of the machine-readable streaming results: per
// dataset and monitor mode, the stream throughput, the DP work per point
// and the match emission latency — the numbers CI tracks across PRs.
type streamEntry struct {
	Dataset       string  `json:"dataset"`
	Mode          string  `json:"mode"`
	Queries       int     `json:"queries"`
	QueryLen      int     `json:"query_len"`
	Points        int     `json:"points"`
	Matches       int64   `json:"matches"`
	WallMS        float64 `json:"wall_ms"`
	PointsPerSec  float64 `json:"points_per_sec"`
	CellsPerPoint float64 `json:"cells_per_point"`
	// AvgLatencyPoints is the mean number of stream points between a
	// match's end and the point whose arrival confirmed it (SPRING's
	// report delay); -1 when the mode emits only at Flush.
	AvgLatencyPoints float64 `json:"avg_match_latency_points"`

	// The remaining fields are set only by the fleet experiment (dataset
	// "fleet", modes "hub" and "monitors"): the stream count of the grid
	// point, the fraction of SPRING column advances the hub's time-domain
	// prefilter elided, and the batch-granular match-latency percentiles
	// in stream points (-1 when the run emitted no matches).
	Streams          int     `json:"streams,omitempty"`
	SkipRate         float64 `json:"prefilter_skip_rate,omitempty"`
	P50LatencyPoints float64 `json:"p50_match_latency_points,omitempty"`
	P99LatencyPoints float64 `json:"p99_match_latency_points,omitempty"`
}

// writeStreamJSON persists the streaming entries for machines (CI trend
// lines) next to the human-readable table on stdout.
func writeStreamJSON(path string, entries []streamEntry) error {
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding stream results: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing stream results: %w", err)
	}
	return nil
}

// streamPoints is the stream length per workload scale.
func streamPoints(sc experiments.Scale) int {
	switch sc {
	case experiments.Small:
		return 10_000
	case experiments.Medium:
		return 50_000
	default:
		return 200_000
	}
}

// runStream exercises the streaming Monitor on one workload: a stream
// concatenated from the data set's series, watched (a) for one query in
// best-only mode pushed point-by-point, (b) for one query with a
// calibrated emission threshold (match latency is measurable there), and
// (c) for four queries fanned out across the worker pool in one batch.
func runStream(name string, sc experiments.Scale, seed int64) (string, []streamEntry, error) {
	d, err := experiments.LoadDataset(name, sc, seed)
	if err != nil {
		return "", nil, err
	}
	points := streamPoints(sc)
	query := d.Series[0]
	stream := make([]float64, 0, points)
	for i := 1; len(stream) < points; i = i%(d.Len()-1) + 1 {
		stream = append(stream, d.Series[i].Values...)
	}
	stream = stream[:points]
	ctx := context.Background()

	var sb strings.Builder
	var entries []streamEntry
	fmt.Fprintf(&sb, "%s: %d-point stream, query length %d\n", d.Name, points, query.Len())
	fmt.Fprintf(&sb, "%-12s %8s %9s %8s %13s %12s %9s %12s\n",
		"mode", "queries", "points", "matches", "points/sec", "cells/point", "latency", "wall")

	record := func(mode string, queries int, matches int64, wall time.Duration, st sdtw.MonitorStats, latency float64) {
		e := streamEntry{
			Dataset:          d.Name,
			Mode:             mode,
			Queries:          queries,
			QueryLen:         query.Len(),
			Points:           points,
			Matches:          matches,
			WallMS:           float64(wall.Microseconds()) / 1000,
			PointsPerSec:     float64(points) / wall.Seconds(),
			CellsPerPoint:    float64(st.Cells) / float64(st.Points),
			AvgLatencyPoints: latency,
		}
		entries = append(entries, e)
		lat := "-"
		if latency >= 0 {
			lat = fmt.Sprintf("%.1f", latency)
		}
		fmt.Fprintf(&sb, "%-12s %8d %9d %8d %13.0f %12.1f %9s %12v\n",
			mode, queries, points, matches, e.PointsPerSec, e.CellsPerPoint, lat, wall.Round(time.Millisecond))
	}

	// (a) Best-only, point-by-point: the pure per-point hot path.
	mon, err := sdtw.NewMonitor([]sdtw.Series{query}, sdtw.Options{})
	if err != nil {
		return "", nil, err
	}
	start := time.Now()
	for _, v := range stream {
		if _, err := mon.Push(ctx, v); err != nil {
			return "", nil, err
		}
	}
	best, err := mon.Flush()
	if err != nil {
		return "", nil, err
	}
	record("best-only", 1, int64(len(best)), time.Since(start), mon.Stats(), -1)
	if len(best) != 1 {
		return "", nil, fmt.Errorf("best-only monitor on %s reported %d matches, want 1", d.Name, len(best))
	}

	// (b) Thresholded emission at 2x the best distance, point-by-point so
	// the report delay is measured exactly.
	mon, err = sdtw.NewMonitor([]sdtw.Series{query}, sdtw.Options{},
		sdtw.WithMatchThreshold(2*best[0].Distance), sdtw.WithMinGap(query.Len()/2))
	if err != nil {
		return "", nil, err
	}
	var matches int64
	var latencySum float64
	start = time.Now()
	for t, v := range stream {
		out, err := mon.Push(ctx, v)
		if err != nil {
			return "", nil, err
		}
		for _, m := range out {
			matches++
			latencySum += float64(t - m.End)
		}
	}
	final, err := mon.Flush()
	if err != nil {
		return "", nil, err
	}
	matches += int64(len(final)) // end-of-stream confirmations have no delay
	latency := -1.0
	if matches > 0 {
		latency = latencySum / float64(matches)
	}
	record("threshold", 1, matches, time.Since(start), mon.Stats(), latency)

	// (c) Multi-query fan-out, batched.
	nq := 4
	if nq > d.Len() {
		nq = d.Len()
	}
	mon, err = sdtw.NewMonitor(d.Series[:nq], sdtw.Options{})
	if err != nil {
		return "", nil, err
	}
	start = time.Now()
	const batch = 4096
	for off := 0; off < len(stream); off += batch {
		end := off + batch
		if end > len(stream) {
			end = len(stream)
		}
		if _, err := mon.PushBatch(ctx, stream[off:end]); err != nil {
			return "", nil, err
		}
	}
	multi, err := mon.Flush()
	if err != nil {
		return "", nil, err
	}
	record("multi-query", nq, int64(len(multi)), time.Since(start), mon.Stats(), -1)

	return sb.String(), entries, nil
}

func parseScale(s string) (experiments.Scale, error) {
	switch strings.ToLower(s) {
	case "full":
		return experiments.Full, nil
	case "medium":
		return experiments.Medium, nil
	case "small":
		return experiments.Small, nil
	default:
		return 0, fmt.Errorf("unknown scale %q (want full, medium or small)", s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sdtwbench:", err)
	os.Exit(1)
}
