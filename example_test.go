package sdtw_test

import (
	"context"
	"fmt"

	"sdtw"
)

// The one-shot helpers compare a short series against a stretched copy:
// DTW absorbs the temporal deformation the pointwise distance cannot.
func ExampleDTW() {
	x := []float64{0, 1, 2, 1, 0}
	y := []float64{0, 0, 1, 1, 2, 2, 1, 1, 0, 0} // x at half speed
	d, err := sdtw.DTW(x, y)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%.1f\n", d)
	// Output: 0.0
}

// DTWPath also recovers the optimal warp path, the alignment itself.
func ExampleDTWPath() {
	x := []float64{0, 1, 0}
	y := []float64{0, 0, 1, 0}
	d, path, err := sdtw.DTWPath(x, y)
	if err != nil {
		panic(err)
	}
	fmt.Printf("distance %.1f, path length %d, starts %v, ends %v\n",
		d, len(path), path[0], path[len(path)-1])
	// Output: distance 0.0, path length 4, starts {0 0}, ends {2 3}
}

// An Engine applies sDTW's locally relevant constraints and reports how
// much of the DTW grid the salient-feature alignment pruned away.
func ExampleEngine() {
	data := sdtw.GunDataset(sdtw.DatasetConfig{Seed: 1, SeriesPerClass: 2})
	eng := sdtw.NewEngine(sdtw.DefaultOptions())
	// Series[0] and Series[1] are two gun-class recordings: structurally
	// alike, temporally deformed.
	res, err := eng.DistanceSeries(data.Series[0], data.Series[1])
	if err != nil {
		panic(err)
	}
	fmt.Printf("pruned part of the grid: %v\n", res.CellsGain() > 0.3)
	// Output: pruned part of the grid: true
}

// Subsequence search finds where a short pattern best matches inside a
// longer stream.
func ExampleEngine_Subsequence() {
	pattern := []float64{0, 2, 0}
	stream := []float64{5, 5, 5, 0, 2, 0, 5, 5}
	m, err := sdtw.NewEngine(sdtw.Options{}).Subsequence(pattern, stream)
	if err != nil {
		panic(err)
	}
	fmt.Printf("match [%d,%d] distance %.1f\n", m.Start, m.End, m.Distance)
	// Output: match [3,5] distance 0.0
}

// A Monitor watches an unbounded stream for a pattern with O(|pattern|)
// state and O(|pattern|) work per point, reporting each non-overlapping
// occurrence as soon as it is provably final.
func ExampleMonitor() {
	pattern := sdtw.NewSeries("pulse", 0, []float64{0, 2, 0})
	mon, err := sdtw.NewMonitor([]sdtw.Series{pattern}, sdtw.Options{}, sdtw.WithMatchThreshold(0.5))
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	for _, v := range []float64{5, 5, 0, 2, 0, 5, 5, 0, 2, 0, 5} {
		matches, err := mon.Push(ctx, v)
		if err != nil {
			panic(err)
		}
		for _, m := range matches {
			fmt.Printf("%s at [%d,%d] distance %.1f\n", m.QueryID, m.Start, m.End, m.Distance)
		}
	}
	if _, err := mon.Flush(); err != nil {
		panic(err)
	}
	// Output:
	// pulse at [2,4] distance 0.0
	// pulse at [7,9] distance 0.0
}

// Search is the unified query surface: one call serves top-k retrieval,
// range search (WithThreshold) and leave-one-out exclusion on either
// backend, under a cancellable context.
func Example_search() {
	data := []sdtw.Series{
		sdtw.NewSeries("ramp", 0, []float64{0, 1, 2, 3, 4, 5, 6, 7}),
		sdtw.NewSeries("ramp-slow", 0, []float64{0, 0, 1, 1, 2, 3, 5, 7}),
		sdtw.NewSeries("flat", 1, []float64{3, 3, 3, 3, 3, 3, 3, 3}),
	}
	ix, err := sdtw.NewIndex(data, sdtw.Options{Strategy: sdtw.FullGrid})
	if err != nil {
		panic(err)
	}
	query := sdtw.NewSeries("q", 0, []float64{0, 1, 2, 3, 4, 5, 6, 7})
	nbrs, stats, err := ix.Search(context.Background(), query, sdtw.WithK(2))
	if err != nil {
		panic(err)
	}
	fmt.Printf("nearest: %s (distance %.1f)\n", ix.Series(nbrs[0].Pos).ID, nbrs[0].Distance)
	fmt.Printf("examined %d candidates\n", stats.Candidates)
	// Output:
	// nearest: ramp (distance 0.0)
	// examined 3 candidates
}

// Indexes are mutable: Add pays the new series' one-time costs (feature
// extraction, LB_Keogh envelope) incrementally, and the next search sees
// it immediately.
func ExampleIndex_Add() {
	data := []sdtw.Series{
		sdtw.NewSeries("up", 0, []float64{0, 1, 2, 3, 4, 5, 6, 7}),
		sdtw.NewSeries("down", 1, []float64{7, 6, 5, 4, 3, 2, 1, 0}),
	}
	ix, err := sdtw.NewWindowedIndex(data, -1) // exact DTW backend
	if err != nil {
		panic(err)
	}
	if err := ix.Add(sdtw.NewSeries("up-too", 0, []float64{0, 0, 1, 2, 3, 4, 6, 7})); err != nil {
		panic(err)
	}
	query := sdtw.NewSeries("q", 0, []float64{0, 1, 1, 2, 3, 4, 6, 7})
	nbrs, _, err := ix.Search(context.Background(), query, sdtw.WithK(1))
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d series indexed; nearest to the query: %s\n", ix.Len(), ix.Series(nbrs[0].Pos).ID)
	// Output: 3 series indexed; nearest to the query: up-too
}
