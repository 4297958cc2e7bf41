package experiments

import (
	"fmt"
	"strings"
)

// Fig13 evaluates the standard algorithm grid on one data set and reports
// top-5/top-10 retrieval accuracy with time gains (paper Fig 13). Fig 14
// (distance error versus time gain), Fig 15 (intra-class distance error,
// on Trace) and Fig 16 (kNN classification agreement, on 50Words) plot
// other columns of the same results: render them with RenderFig14,
// RenderFig15 and RenderFig16.
func Fig13(name string, scale Scale, seed int64) ([]AlgoResult, error) {
	return evaluateGrid(name, scale, seed, StandardAlgorithms())
}

// Fig17 reports the matching vs dynamic-programming time breakdown of the
// adaptive algorithms on one data set (paper Fig 17).
func Fig17(name string, scale Scale, seed int64) ([]AlgoResult, error) {
	return evaluateGrid(name, scale, seed, AdaptiveAlgorithms())
}

// Fig18Point is one sweep point of the descriptor-length analysis.
type Fig18Point struct {
	Bins   int
	Result AlgoResult
}

// Fig18 sweeps the descriptor length over the adaptive algorithms on one
// data set (paper Fig 18: bins ∈ {4, 8, 16, 32, 64, 128}).
func Fig18(name string, scale Scale, seed int64, bins []int) ([]Fig18Point, error) {
	if len(bins) == 0 {
		bins = []int{4, 8, 16, 32, 64, 128}
	}
	w, err := NewWorkload(name, scale, seed)
	if err != nil {
		return nil, err
	}
	var points []Fig18Point
	for _, nb := range bins {
		for _, algo := range AdaptiveAlgorithms() {
			res, err := Evaluate(w, algo.WithDescriptorBins(nb))
			if err != nil {
				return nil, fmt.Errorf("experiments: fig18 %s bins=%d %s: %w", name, nb, algo.Name, err)
			}
			points = append(points, Fig18Point{Bins: nb, Result: res})
		}
	}
	return points, nil
}

func evaluateGrid(name string, scale Scale, seed int64, algos []Algorithm) ([]AlgoResult, error) {
	w, err := NewWorkload(name, scale, seed)
	if err != nil {
		return nil, err
	}
	var results []AlgoResult
	for _, algo := range algos {
		res, err := Evaluate(w, algo)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s on %s: %w", algo.Name, name, err)
		}
		results = append(results, res)
	}
	return results, nil
}

// RenderFig13 formats retrieval accuracy and time gain rows.
func RenderFig13(results []AlgoResult) string {
	var b strings.Builder
	if len(results) > 0 {
		fmt.Fprintf(&b, "Data set: %s\n", results[0].Dataset)
	}
	fmt.Fprintf(&b, "%-12s %8s %8s %9s %9s\n", "Algorithm", "top-5", "top-10", "timegain", "cellgain")
	for _, r := range results {
		fmt.Fprintf(&b, "%-12s %8.3f %8.3f %9.3f %9.3f\n", r.Algorithm, r.Top5Acc, r.Top10Acc, r.TimeGain, r.CellsGain)
	}
	return b.String()
}

// RenderFig14 formats distance error vs time gain rows.
func RenderFig14(results []AlgoResult) string {
	var b strings.Builder
	if len(results) > 0 {
		fmt.Fprintf(&b, "Data set: %s\n", results[0].Dataset)
	}
	fmt.Fprintf(&b, "%-12s %10s %9s %9s\n", "Algorithm", "disterr", "timegain", "cellgain")
	for _, r := range results {
		fmt.Fprintf(&b, "%-12s %10.4f %9.3f %9.3f\n", r.Algorithm, r.DistErr, r.TimeGain, r.CellsGain)
	}
	return b.String()
}

// RenderFig15 formats intra-class distance error rows.
func RenderFig15(results []AlgoResult) string {
	var b strings.Builder
	if len(results) > 0 {
		fmt.Fprintf(&b, "Data set: %s (intra-class pairs only)\n", results[0].Dataset)
	}
	fmt.Fprintf(&b, "%-12s %14s %9s\n", "Algorithm", "intra-disterr", "timegain")
	for _, r := range results {
		fmt.Fprintf(&b, "%-12s %14.4f %9.3f\n", r.Algorithm, r.IntraClassErr, r.TimeGain)
	}
	return b.String()
}

// RenderFig16 formats classification agreement rows.
func RenderFig16(results []AlgoResult) string {
	var b strings.Builder
	if len(results) > 0 {
		fmt.Fprintf(&b, "Data set: %s\n", results[0].Dataset)
	}
	fmt.Fprintf(&b, "%-12s %8s %8s %9s\n", "Algorithm", "cls-5", "cls-10", "timegain")
	for _, r := range results {
		fmt.Fprintf(&b, "%-12s %8.3f %8.3f %9.3f\n", r.Algorithm, r.Cls5Acc, r.Cls10Acc, r.TimeGain)
	}
	return b.String()
}

// RenderFig17 formats the matching/DP time breakdown.
func RenderFig17(results []AlgoResult) string {
	var b strings.Builder
	if len(results) > 0 {
		fmt.Fprintf(&b, "Data set: %s\n", results[0].Dataset)
	}
	fmt.Fprintf(&b, "%-12s %12s %12s %11s %9s\n", "Algorithm", "match(ms)", "dp(ms)", "match-share", "avgpairs")
	for _, r := range results {
		fmt.Fprintf(&b, "%-12s %12.2f %12.2f %11.3f %9.1f\n",
			r.Algorithm,
			float64(r.Timing.MatchTime.Microseconds())/1000,
			float64(r.Timing.DPTime.Microseconds())/1000,
			r.MatchShare, r.AvgPairs)
	}
	return b.String()
}

// RenderFig18 formats the descriptor-length sweep.
func RenderFig18(points []Fig18Point) string {
	var b strings.Builder
	if len(points) > 0 {
		fmt.Fprintf(&b, "Data set: %s\n", points[0].Result.Dataset)
	}
	fmt.Fprintf(&b, "%-6s %-12s %10s %8s %9s %9s\n", "bins", "Algorithm", "disterr", "top-10", "timegain", "cellgain")
	for _, p := range points {
		r := p.Result
		fmt.Fprintf(&b, "%-6d %-12s %10.4f %8.3f %9.3f %9.3f\n", p.Bins, r.Algorithm, r.DistErr, r.Top10Acc, r.TimeGain, r.CellsGain)
	}
	return b.String()
}
