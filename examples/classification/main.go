// Classification: leave-one-out k-nearest-neighbour classification of the
// Gun workload under exact DTW and under each sDTW constraint strategy,
// reporting accuracy against ground-truth labels and the grid work saved —
// the paper's Fig 16 experiment in miniature.
//
// Run with:
//
//	go run ./examples/classification
package main

import (
	"context"
	"fmt"
	"log"

	"sdtw"
)

func main() {
	data := sdtw.GunDataset(sdtw.DatasetConfig{Seed: 19, SeriesPerClass: 12})
	fmt.Printf("workload: %s — %d series, length %d, %d classes\n\n",
		data.Name, data.Len(), data.Length, data.NumClasses)

	strategies := []struct {
		name string
		opts sdtw.Options
	}{
		{"dtw (exact)", sdtw.Options{Strategy: sdtw.FullGrid}},
		{"fc,fw 10%", sdtw.Options{Strategy: sdtw.FixedCoreFixedWidth, WidthFrac: 0.10}},
		{"fc,aw", sdtw.Options{Strategy: sdtw.FixedCoreAdaptiveWidth}},
		{"ac,fw 10%", sdtw.Options{Strategy: sdtw.AdaptiveCoreFixedWidth, WidthFrac: 0.10}},
		{"ac,aw", sdtw.Options{Strategy: sdtw.AdaptiveCoreAdaptiveWidth}},
		{"ac2,aw", sdtw.Options{Strategy: sdtw.AdaptiveCoreAdaptiveWidthAvg}},
	}

	const k = 3
	fmt.Printf("%-12s %10s %12s\n", "strategy", "accuracy", "cells-gain")
	for _, s := range strategies {
		acc, gain, err := leaveOneOut(data, s.opts, k)
		if err != nil {
			log.Fatalf("%s: %v", s.name, err)
		}
		fmt.Printf("%-12s %10.3f %12.3f\n", s.name, acc, gain)
	}
	fmt.Println("\naccuracy = fraction of series whose kNN label set contains the true label")
}

// leaveOneOut classifies every series against all others and returns the
// fraction of correct label sets plus the mean grid-pruning gain.
func leaveOneOut(data *sdtw.Dataset, opts sdtw.Options, k int) (acc, gain float64, err error) {
	idx, err := sdtw.NewIndex(data.Series, opts)
	if err != nil {
		return 0, 0, err
	}
	correct := 0
	for i := 0; i < data.Len(); i++ {
		// Search skips the query itself (matching IDs), so this is
		// leave-one-out by construction.
		labels, err := idx.Labels(context.Background(), data.Series[i], sdtw.WithK(k))
		if err != nil {
			return 0, 0, err
		}
		for _, l := range labels {
			if l == data.Series[i].Label {
				correct++
				break
			}
		}
	}
	res, err := idx.Engine().Distance(data.Series[0].Values, data.Series[1].Values)
	if err != nil {
		return 0, 0, err
	}
	return float64(correct) / float64(data.Len()), res.CellsGain(), nil
}
