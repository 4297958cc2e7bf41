// Retrieval: index a collection of time series and answer top-k queries
// under sDTW constraints, comparing the result quality and work done
// against exact DTW — the paper's §4 retrieval experiment in miniature.
//
// Building the index pays the one-time costs (salient feature extraction
// and LB_Keogh envelopes); each query then runs a lower-bound cascade:
// candidates ordered by the cheap LB_Kim bound are discarded against the
// best-so-far k-th distance — first by LB_Kim, then by envelope LB_Keogh
// — and only the survivors reach the sDTW pipeline, fanned out across a
// worker pool. The SearchStats record reports how far each candidate got.
//
// Run with:
//
//	go run ./examples/retrieval
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"sdtw"
)

func main() {
	// The Trace workload: 4 classes of instrument transients with
	// per-instance time warps (a reduced instance for a quick run).
	data := sdtw.TraceDataset(sdtw.DatasetConfig{Seed: 7, SeriesPerClass: 10})
	fmt.Printf("indexed workload: %s — %d series, length %d, %d classes\n\n",
		data.Name, data.Len(), data.Length, data.NumClasses)

	// Two indexes over the same collection: the exact full-grid DTW
	// reference and the sDTW (ac,aw) estimate. Building an index extracts
	// and caches salient features once per series (the paper's one-time
	// indexing cost).
	exactIdx, err := sdtw.NewIndex(data.Series, sdtw.Options{Strategy: sdtw.FullGrid})
	if err != nil {
		log.Fatal(err)
	}
	fastIdx, err := sdtw.NewIndex(data.Series, sdtw.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	const k = 5
	ctx := context.Background()
	overlapSum := 0.0
	var cascade sdtw.SearchStats
	queries := []int{0, 11, 23, 35} // one per class
	for _, q := range queries {
		query := data.Series[q]
		exact, _, err := exactIdx.Search(ctx, query, sdtw.WithK(k))
		if err != nil {
			log.Fatal(err)
		}
		fast, stats, err := fastIdx.Search(ctx, query, sdtw.WithK(k))
		if err != nil {
			log.Fatal(err)
		}
		cascade = stats

		exactSet := make(map[int]bool, k)
		for _, nb := range exact {
			exactSet[nb.Pos] = true
		}
		hits := 0
		for _, nb := range fast {
			if exactSet[nb.Pos] {
				hits++
			}
		}
		overlap := float64(hits) / float64(k)
		overlapSum += overlap

		fmt.Printf("query %s (class %d): top-%d overlap with exact DTW = %.2f\n",
			query.ID, query.Label, k, overlap)
		for rank := 0; rank < k; rank++ {
			e, f := exact[rank], fast[rank]
			fmt.Printf("   #%d  exact: %-14s d=%.4f   sdtw: %-14s d=%.4f\n",
				rank+1,
				e.ID, e.Distance,
				f.ID, f.Distance)
		}
	}
	fmt.Printf("\nmean top-%d retrieval accuracy (accret): %.3f\n", k, overlapSum/float64(len(queries)))

	// The work the last query's cascade avoided: candidates discarded by
	// LB_Kim and LB_Keogh never touched the DTW grid, and the survivors
	// ran an early-abandoning DP that stops once the partial cost exceeds
	// the k-th best distance.
	fmt.Printf("cascade on the last query: %d candidates, %d pruned by LB_Kim, %d by LB_Keogh, %d evaluated (%d abandoned mid-grid)\n",
		cascade.Candidates, cascade.PrunedKim, cascade.PrunedKeogh, cascade.Evaluated, cascade.AbandonedDTW)
	fmt.Printf("DP work avoided: %d of %d grid cells filled (%.1f%% saved, bounds+band+abandonment combined; %d cells saved by abandonment alone)\n",
		cascade.Cells, cascade.GridCells, 100*cascade.CellsGain(), cascade.CellsSaved)

	// Whole-dataset workloads batch through the same cascade: classify
	// every indexed series leave-one-out in one call.
	labels, batch, err := fastIdx.LabelsAll(ctx, sdtw.WithK(3))
	if err != nil {
		log.Fatal(err)
	}
	correct := 0
	for i, ls := range labels {
		for _, l := range ls {
			if l == data.Series[i].Label {
				correct++
				break
			}
		}
	}
	fmt.Printf("\nleave-one-out 3-NN over the whole collection: %d/%d correct, %.1f%% of candidates pruned, %v\n",
		correct, data.Len(), 100*batch.PruneRate(), batch.WallTime.Round(time.Millisecond))
}
