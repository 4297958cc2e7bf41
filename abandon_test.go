package sdtw

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sdtw/internal/dtw"
	"sdtw/internal/lower"
)

// TestTopKAbandonInvariance is the tentpole property: early abandonment
// and pruning must never change retrieval results, only skip grid work.
// Across every band strategy and both equal- and unequal-length
// collections, Search and LabelsAll with abandonment enabled are
// bit-identical to the same queries with abandonment disabled.
func TestTopKAbandonInvariance(t *testing.T) {
	collections := map[string][]Series{
		"equal-length":   randomWalkSeries(rand.New(rand.NewSource(21)), 16, 64, 0),
		"unequal-length": randomWalkSeries(rand.New(rand.NewSource(22)), 12, 60, 6),
	}
	for collName, data := range collections {
		for _, opts := range cascadeConfigs() {
			name := fmt.Sprintf("%s/%v", collName, opts.Strategy)
			if opts.Symmetric {
				name += "+sym"
			}
			if opts.MaxWidthFrac > 0 {
				name += "+maxw"
			}
			if opts.Strategy == FixedCoreFixedWidth {
				name += fmt.Sprintf("+w=%g", opts.WidthFrac)
			}
			opts := opts
			data := data
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				ix, err := NewIndex(data, opts)
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				for _, k := range []int{1, 3, 100} {
					for _, q := range []Series{data[0], data[len(data)-1]} {
						got, gotStats, err := ix.Search(ctx, q, WithK(k))
						if err != nil {
							t.Fatal(err)
						}
						want, wantStats, err := ix.Search(ctx, q, WithK(k), WithoutAbandon())
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != len(want) {
							t.Fatalf("k=%d: %d neighbours with abandonment, %d without", k, len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("k=%d rank %d: %+v with abandonment, %+v without (on=%v off=%v)",
									k, i, got[i], want[i], gotStats, wantStats)
							}
						}
						if wantStats.AbandonedDTW != 0 || wantStats.CellsSaved != 0 {
							t.Fatalf("WithoutAbandon search reported abandonment: %v", wantStats)
						}
						if gotStats.AbandonedDTW > gotStats.Evaluated {
							t.Fatalf("abandoned exceeds evaluated: %v", gotStats)
						}
						if total := gotStats.PrunedSketch + gotStats.PrunedKim + gotStats.PrunedKeogh + gotStats.Evaluated; total != gotStats.Candidates {
							t.Fatalf("stats do not partition candidates: %v", gotStats)
						}
					}
				}
				onLabels, _, err := ix.LabelsAll(ctx, WithK(3))
				if err != nil {
					t.Fatal(err)
				}
				offLabels, _, err := ix.LabelsAll(ctx, WithK(3), WithoutAbandon())
				if err != nil {
					t.Fatal(err)
				}
				for i := range onLabels {
					if len(onLabels[i]) != len(offLabels[i]) {
						t.Fatalf("series %d: ClassifyAll %v with abandonment, %v without", i, onLabels[i], offLabels[i])
					}
					for j := range onLabels[i] {
						if onLabels[i][j] != offLabels[i][j] {
							t.Fatalf("series %d: ClassifyAll %v with abandonment, %v without", i, onLabels[i], offLabels[i])
						}
					}
				}
			})
		}
	}
}

// TestAbandonPartialIsLowerBound asserts the property abandonment's
// exactness rests on, at the engine level on realistic workload pairs:
// the partial cost of an abandoned computation never exceeds the true
// banded distance and always exceeds the budget it was abandoned against.
func TestAbandonPartialIsLowerBound(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 17, SeriesPerClass: 4})
	for _, opts := range cascadeConfigs() {
		engine := NewEngine(opts)
		for trial := 0; trial < 12; trial++ {
			x := d.Series[trial%d.Len()]
			y := d.Series[(trial*7+3)%d.Len()]
			full, err := engine.DistanceSeries(x, y)
			if err != nil {
				t.Fatal(err)
			}
			budget := full.Distance * 0.2
			res, err := engine.DistanceUnderSeries(x, y, budget)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Abandoned {
				if res.Distance != full.Distance {
					t.Fatalf("%v: non-abandoned run diverged: %v vs %v", opts.Strategy, res.Distance, full.Distance)
				}
				continue
			}
			if res.Distance <= budget {
				t.Fatalf("%v: abandoned at %v, not above budget %v", opts.Strategy, res.Distance, budget)
			}
			if err := lower.ValidateBound(res.Distance, full.Distance); err != nil {
				t.Fatalf("%v: abandoned partial cost not a lower bound: %v", opts.Strategy, err)
			}
		}
	}
}

// TestAbandonSavesWorkOnTrace pins the acceptance bar: on the Trace
// retrieval workload, early abandonment fires and measurably reduces the
// cells filled relative to the same queries without it.
func TestAbandonSavesWorkOnTrace(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 42, SeriesPerClass: 12})
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"sakoe-chiba-10", Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10}},
		{"ac,aw", DefaultOptions()},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			ix, err := NewIndex(d.Series, cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			_, onStats, err := ix.SearchBatch(context.Background(), d.Series, WithK(5))
			if err != nil {
				t.Fatal(err)
			}
			_, offStats, err := ix.SearchBatch(context.Background(), d.Series, WithK(5), WithoutAbandon())
			if err != nil {
				t.Fatal(err)
			}
			if onStats.AbandonedDTW == 0 {
				t.Fatalf("abandonment never fired: %v", onStats)
			}
			if onStats.CellsSaved == 0 {
				t.Fatalf("no cells saved: %v", onStats)
			}
			if onStats.Cells >= offStats.Cells {
				t.Fatalf("abandonment filled %d cells, disabled filled %d", onStats.Cells, offStats.Cells)
			}
			if onStats.AbandonRate() <= 0 {
				t.Fatalf("abandon rate %v", onStats.AbandonRate())
			}
		})
	}
}

// TestWindowedIndexAbandonInvariance mirrors the invariance property for
// the windowed exact index: abandonment on and off (per search, via
// WithoutAbandon) return identical neighbours, and on a structured
// workload abandonment actually fires.
func TestWindowedIndexAbandonInvariance(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 33, SeriesPerClass: 8})
	ctx := context.Background()
	for _, radius := range []int{-1, 10, 25} {
		ix, err := NewWindowedIndex(d.Series, radius)
		if err != nil {
			t.Fatal(err)
		}
		totalAbandoned := 0
		for q := 0; q < d.Len(); q += 3 {
			for _, k := range []int{1, 4} {
				got, gotStats, err := ix.Search(ctx, d.Series[q], WithK(k))
				if err != nil {
					t.Fatal(err)
				}
				want, wantStats, err := ix.Search(ctx, d.Series[q], WithK(k), WithoutAbandon())
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("radius=%d q=%d k=%d: %d vs %d neighbours", radius, q, k, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("radius=%d q=%d k=%d rank %d: %+v with abandonment, %+v without",
							radius, q, k, i, got[i], want[i])
					}
				}
				if wantStats.AbandonedDTW != 0 {
					t.Fatalf("WithoutAbandon search abandoned: %+v", wantStats)
				}
				totalAbandoned += gotStats.AbandonedDTW
				if gotStats.Evaluated+gotStats.PrunedSketch+gotStats.PrunedKim+gotStats.PrunedKeogh != gotStats.Candidates {
					t.Fatalf("stats do not partition candidates: %+v", gotStats)
				}
			}
		}
		if totalAbandoned == 0 {
			t.Fatalf("radius=%d: abandonment never fired across the workload", radius)
		}
	}
}

// TestBudgetNeverFillsMoreCells pins the direction of the saving at the
// retrieval level. At one worker the cascade visits the same candidates
// in the same order under the same thresholds whether or not the dynamic
// program is handed the budget (an abandoned candidate would not have
// entered the heap either), so the hits and the evaluated count are
// identical and every candidate fills at most the cells it fills without
// the budget — on the sDTW backend, whose wide bands are pruned as well
// as abandoned, and on the windowed one. (With more workers the set of
// candidates that reach the DP depends on timing, and so does the sum.)
func TestBudgetNeverFillsMoreCells(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 33, SeriesPerClass: 8})
	engine, err := NewIndex(d.Series, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := NewWindowedIndex(d.Series, 10)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, ix := range map[string]*Index{"(ac,aw)": engine, "windowed": windowed} {
		under, whole := 0, 0
		for q := 0; q < d.Len(); q += 3 {
			for _, k := range []int{1, 4} {
				got, gotStats, err := ix.Search(ctx, d.Series[q], WithK(k), WithWorkers(1))
				if err != nil {
					t.Fatal(err)
				}
				want, wantStats, err := ix.Search(ctx, d.Series[q], WithK(k), WithWorkers(1), WithoutAbandon())
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s q=%d k=%d: %d vs %d neighbours", name, q, k, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s q=%d k=%d rank %d: %+v under the budget, %+v without", name, q, k, i, got[i], want[i])
					}
				}
				if gotStats.Evaluated != wantStats.Evaluated || gotStats.Cells > wantStats.Cells {
					t.Fatalf("%s q=%d k=%d: %d candidates filled %d cells under the budget, %d filled %d without",
						name, q, k, gotStats.Evaluated, gotStats.Cells, wantStats.Evaluated, wantStats.Cells)
				}
				under += gotStats.Cells
				whole += wantStats.Cells
			}
		}
		if under >= whole {
			t.Fatalf("%s: the budget saved nothing: %d cells under it, %d without", name, under, whole)
		}
	}
}

// TestBoundedIndexRadiusRegression reproduces the envelope-radius
// off-by-one the fixed BoundedIndex no longer has. The old index built
// its DP band via SakoeChiba(len, len, (2r+1)/len), whose ceil rounding
// yields band radius r+1, while the LB_Keogh envelopes were built at
// radius r — and LB_Keogh at radius r does not lower-bound windowed DTW
// at radius r+1, so a top-k search could falsely dismiss the true nearest
// neighbour. The crafted workload: the query's spike aligns a candidate's
// spike two samples away — reachable at band radius 2, invisible to
// radius-1 envelopes — so the old pipeline prunes the true neighbour on
// an inadmissible bound and returns a strictly worse series.
func TestBoundedIndexRadiusRegression(t *testing.T) {
	const length, radius = 9, 1
	mk := func(id string, spikeAt int, height float64) Series {
		v := make([]float64, length)
		v[spikeAt] = height
		return NewSeries(id, 0, v)
	}
	trueNeighbor := mk("true", 5, 2) // pos 0: spike 2 right of the query's
	decoy := mk("decoy", 3, 1.9)     // pos 1: nearly matching spike in place
	data := []Series{trueNeighbor, decoy}
	query := mk("q", 3, 2)

	// --- The old pipeline, reproduced: envelopes at radius 1, DP band
	// derived via the width fraction (radius 2), candidates ordered by
	// ascending LB_Keogh and pruned against the best-so-far.
	oldBand := dtw.SakoeChiba(length, length, float64(2*radius+1)/float64(length))
	if oldBand.Hi[0] != radius+1 {
		t.Fatalf("old band radius = %d, want %d (the off-by-one under test)", oldBand.Hi[0], radius+1)
	}
	type cand struct {
		pos   int
		bound float64
	}
	var cands []cand
	for i, s := range data {
		b, err := lower.Keogh(query.Values, lower.NewEnvelope(s.Values, radius), nil)
		if err != nil {
			t.Fatal(err)
		}
		cands = append(cands, cand{pos: i, bound: b})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].bound < cands[b].bound })
	oldBest, oldKth := -1, math.Inf(1)
	pruned := 0
	for _, c := range cands {
		if c.bound > oldKth {
			pruned++
			continue
		}
		dist, _, err := dtw.Banded(query.Values, data[c.pos].Values, oldBand)
		if err != nil {
			t.Fatal(err)
		}
		if dist < oldKth {
			oldBest, oldKth = c.pos, dist
		}
	}
	// Under the old pipeline's own distance (band radius 2), the true
	// nearest neighbour is pos 0 at distance 0 — the spikes align inside
	// the radius-2 band.
	d0, _, err := dtw.Banded(query.Values, trueNeighbor.Values, oldBand)
	if err != nil {
		t.Fatal(err)
	}
	d1, _, err := dtw.Banded(query.Values, decoy.Values, oldBand)
	if err != nil {
		t.Fatal(err)
	}
	if !(d0 < d1) {
		t.Fatalf("workload does not exercise the mismatch: d(true)=%v, d(decoy)=%v", d0, d1)
	}
	if pruned == 0 || oldBest != 1 {
		t.Fatalf("old pipeline returned pos %d (pruned=%d); the off-by-one no longer reproduces — did the envelope radius change?",
			oldBest, pruned)
	}

	// --- The fixed index: band built directly at the envelope radius.
	// Search must agree with a brute-force scan under the index's own
	// band, which sits at exactly the envelope radius.
	ix, err := NewWindowedIndex(data, radius)
	if err != nil {
		t.Fatal(err)
	}
	fixedBand := dtw.SakoeChibaRadius(length, length, ix.Radius())
	if fixedBand.Hi[0] != radius {
		t.Fatalf("fixed band radius = %d, want %d", fixedBand.Hi[0], radius)
	}
	for _, k := range []int{1, 2} {
		got, _, err := ix.Search(context.Background(), query, WithK(k))
		if err != nil {
			t.Fatal(err)
		}
		var brute []Neighbor
		for i, s := range data {
			dist, _, err := dtw.Banded(query.Values, s.Values, fixedBand)
			if err != nil {
				t.Fatal(err)
			}
			brute = append(brute, Neighbor{Pos: i, ID: s.ID, Label: s.Label, Distance: dist})
		}
		sort.Slice(brute, func(a, b int) bool {
			if brute[a].Distance != brute[b].Distance {
				return brute[a].Distance < brute[b].Distance
			}
			return brute[a].Pos < brute[b].Pos
		})
		if k > len(brute) {
			k = len(brute)
		}
		if len(got) != k {
			t.Fatalf("k=%d: got %d neighbours", k, len(got))
		}
		for i := 0; i < k; i++ {
			if got[i] != brute[i] {
				t.Fatalf("k=%d rank %d: Search %+v, brute force %+v", k, i, got[i], brute[i])
			}
		}
	}
}
