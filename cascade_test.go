package sdtw

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sdtw/internal/band"
	"sdtw/internal/lower"
)

// cascadeName is a configuration's subtest name: the strategy, then +sym
// and the fixed width where they apply.
func cascadeName(o Options) string {
	name := o.Strategy.String()
	if o.Symmetric {
		name += "+sym"
	}
	if o.Strategy == FixedCoreFixedWidth {
		name += fmt.Sprintf("+w=%g", o.WidthFrac)
	}
	return name
}

// envelopeRadius derives the admissible LB_Keogh envelope radius the same
// way NewIndex does: from the lowered band config via band.EnvelopeRadius.
func envelopeRadius(o Options, m int) int {
	return band.EnvelopeRadius(o.toCore().Band, m)
}

// cascadeConfigs spans every band strategy (plus the width and symmetry
// settings that change the band geometry) so the exactness and
// admissibility properties are exercised against each envelope radius
// derivation. The fixed widths are the configurations whose LB_Keogh
// envelope radius is below the series length.
func cascadeConfigs() []Options {
	return []Options{
		{Strategy: FullGrid},
		{Strategy: FixedCoreFixedWidth, WidthFrac: 0.06},
		{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10},
		{Strategy: FixedCoreFixedWidth, WidthFrac: 0.20},
		{Strategy: FixedCoreFixedWidth, WidthFrac: 0.30},
		{Strategy: FixedCoreAdaptiveWidth},
		{Strategy: AdaptiveCoreFixedWidth, WidthFrac: 0.10},
		{Strategy: AdaptiveCoreAdaptiveWidth},
		{Strategy: AdaptiveCoreAdaptiveWidth, Symmetric: true},
		{Strategy: AdaptiveCoreAdaptiveWidthAvg},
	}
}

// randomWalkSeries generates a labeled collection of random-walk series.
// With jitter > 0 the lengths vary by up to jitter samples, which
// disables the (equal-length) LB_Keogh stage and exercises the
// Kim-only cascade.
func randomWalkSeries(rng *rand.Rand, n, length, jitter int) []Series {
	out := make([]Series, n)
	for i := range out {
		l := length
		if jitter > 0 {
			l += rng.Intn(2*jitter+1) - jitter
		}
		v := make([]float64, l)
		x := rng.NormFloat64()
		for t := range v {
			x += rng.NormFloat64() * 0.3
			v[t] = x
		}
		out[i] = NewSeries(fmt.Sprintf("rw-%d", i), i%3, v)
	}
	return out
}

// bruteTopK is the reference scan the cascade must agree with exactly: the
// engine's distance to every candidate, ranked ascending with ties broken
// by position.
func bruteTopK(t *testing.T, ix *Index, query Series, k int) []Neighbor {
	t.Helper()
	var all []Neighbor
	for i := 0; i < ix.Len(); i++ {
		s := ix.Series(i)
		if s.ID != "" && s.ID == query.ID {
			continue
		}
		res, err := ix.Engine().inner.Distance(query, s)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, Neighbor{Pos: i, ID: s.ID, Label: s.Label, Distance: res.Distance})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Distance != all[b].Distance {
			return all[a].Distance < all[b].Distance
		}
		return all[a].Pos < all[b].Pos
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// TestCascadeMatchesBruteForce is the exactness property: on randomized
// collections and every band strategy, the cascaded parallel Search returns
// the same neighbours at the same distances as a brute-force scan.
func TestCascadeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	collections := map[string][]Series{
		"equal-length":   randomWalkSeries(rng, 18, 64, 0),
		"unequal-length": randomWalkSeries(rng, 14, 60, 8),
	}
	for collName, data := range collections {
		for _, opts := range cascadeConfigs() {
			name := collName + "/" + cascadeName(opts)
			opts := opts
			data := data
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				ix, err := NewIndex(data, opts)
				if err != nil {
					t.Fatal(err)
				}
				queries := []Series{data[0], data[len(data)/2], data[len(data)-1]}
				ext := randomWalkSeries(rand.New(rand.NewSource(99)), 1, 64, 0)[0]
				ext.ID = "external"
				queries = append(queries, ext)
				for qi, q := range queries {
					for _, k := range []int{1, 3, 100} {
						want := bruteTopK(t, ix, q, k)
						got, stats, err := ix.Search(context.Background(), q, WithK(k))
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != len(want) {
							t.Fatalf("query %d k=%d: got %d neighbours, want %d", qi, k, len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("query %d k=%d rank %d: got %+v, want %+v (stats %v)",
									qi, k, i, got[i], want[i], stats)
							}
						}
						if total := stats.PrunedSketch + stats.PrunedKim + stats.PrunedKeogh + stats.Evaluated; total != stats.Candidates {
							t.Fatalf("stats do not partition candidates: %v", stats)
						}
					}
				}
			})
		}
	}
}

// TestCascadeAdmissibility is the property the cascade's exactness rests
// on: on random pairs and every strategy, LB_Kim and LB_Keogh (at the
// index's derived envelope radius) never exceed the banded sDTW distance,
// which itself never underestimates exact DTW.
func TestCascadeAdmissibility(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := randomWalkSeries(rng, 12, 80, 0)
	for _, opts := range cascadeConfigs() {
		engine := NewEngine(opts)
		for trial := 0; trial < 30; trial++ {
			x := data[rng.Intn(len(data))]
			y := data[rng.Intn(len(data))]
			res, err := engine.inner.Distance(x, y)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := DTW(x.Values, y.Values)
			if err != nil {
				t.Fatal(err)
			}
			if res.Distance < exact-1e-9*(1+math.Abs(exact)) {
				t.Fatalf("%v: banded distance %v below exact DTW %v", opts.Strategy, res.Distance, exact)
			}
			kim, err := lower.Kim(x.Values, y.Values, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := lower.ValidateBound(kim, res.Distance); err != nil {
				t.Fatalf("%v: LB_Kim inadmissible: %v", opts.Strategy, err)
			}
			env := lower.NewEnvelope(y.Values, envelopeRadius(opts, y.Len()))
			keogh, err := lower.Keogh(x.Values, env, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := lower.ValidateBound(keogh, res.Distance); err != nil {
				t.Fatalf("%v (radius %d): LB_Keogh inadmissible: %v",
					opts.Strategy, envelopeRadius(opts, y.Len()), err)
			}
		}
	}
}

// TestCascadePrunesMajority pins the acceptance bar: on a Table-1-style
// workload with the classical Sakoe-Chiba band, the cascade discards the
// majority of candidates before any DTW grid work.
func TestCascadePrunesMajority(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 42, SeriesPerClass: 15})
	ix, err := NewIndex(d.Series, Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := ix.SearchBatch(context.Background(), d.Series, WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	if stats.PruneRate() <= 0.5 {
		t.Fatalf("cascade pruned only %.2f of candidates (%v)", stats.PruneRate(), stats)
	}
	if stats.PrunedKeogh == 0 {
		t.Fatalf("LB_Keogh stage never fired: %v", stats)
	}
	if stats.CellsGain() <= 0.5 {
		t.Fatalf("cascade saved only %.2f of DP cells (%v)", stats.CellsGain(), stats)
	}
}

// TestQueryStatsAccounting checks the per-stage numbers are coherent on
// the default adaptive configuration.
func TestQueryStatsAccounting(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 3, SeriesPerClass: 5})
	ix, err := NewIndex(d.Series, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	nbrs, stats, err := ix.Search(context.Background(), d.Series[0], WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(nbrs) != 5 {
		t.Fatalf("got %d neighbours", len(nbrs))
	}
	if stats.Candidates != ix.Len()-1 {
		t.Fatalf("candidates %d, want %d", stats.Candidates, ix.Len()-1)
	}
	if stats.Evaluated == 0 || stats.Cells == 0 || stats.GridCells == 0 {
		t.Fatalf("missing work accounting: %v", stats)
	}
	if stats.Evaluated+stats.PrunedSketch+stats.PrunedKim+stats.PrunedKeogh != stats.Candidates {
		t.Fatalf("stages do not partition candidates: %v", stats)
	}
	if stats.WallTime <= 0 || stats.DPTime <= 0 {
		t.Fatalf("missing timings: %v", stats)
	}
	if s := stats.String(); s == "" {
		t.Fatal("empty stats string")
	}

	// At one worker the stages run back to back inside the search, so
	// their times partition (part of) its wall time — for a held-out
	// query too, whose one feature extraction is a stage of its own.
	heldOut := NewSeries("held-out", 0, append([]float64(nil), d.Series[0].Values...))
	heldOut.Values[len(heldOut.Values)/2] += 0.5
	for _, q := range []Series{d.Series[0], heldOut} {
		_, st, err := ix.Search(context.Background(), q, WithK(5), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		// (A member query reuses the features the index holds for it, too
		// quick a preparation to demand a non-zero reading of.)
		if st.MatchTime <= 0 || (q.ID == heldOut.ID && st.ExtractTime <= 0) {
			t.Fatalf("query %q: missing stage timings: extract %v match %v", q.ID, st.ExtractTime, st.MatchTime)
		}
		if sum := st.BoundTime + st.ExtractTime + st.MatchTime + st.DPTime; sum > st.WallTime {
			t.Fatalf("query %q: stages sum to %v (bound %v + extract %v + match %v + dp %v), over the %v wall",
				q.ID, sum, st.BoundTime, st.ExtractTime, st.MatchTime, st.DPTime, st.WallTime)
		}
	}
}

// TestStageTimingsWithinWall: the per-stage clocks, read at each stage
// boundary, stay non-zero on searches that reach the DP — LB_Keogh's
// time inside BoundTime and the DP's in DPTime on a windowed index, and
// matching's in MatchTime on an engine index — and at one worker, where
// the stages run back to back, they sum to no more than the wall time.
func TestStageTimingsWithinWall(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 5, SeriesPerClass: 6})
	windowed, err := NewWindowedIndex(d.Series, 5)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewIndex(d.Series, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for name, ix := range map[string]*Index{"windowed": windowed, "engine": engine} {
		for _, q := range d.Series[:6] {
			_, st, err := ix.Search(context.Background(), q, WithK(3), WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			if st.Evaluated == 0 {
				t.Fatalf("%s query %q: no candidate reached the DP: %v", name, q.ID, st)
			}
			if st.BoundTime <= 0 || st.DPTime <= 0 || (name == "engine") != (st.MatchTime > 0) {
				t.Fatalf("%s query %q: stage timings bound %v, match %v, dp %v", name, q.ID, st.BoundTime, st.MatchTime, st.DPTime)
			}
			if sum := st.BoundTime + st.ExtractTime + st.MatchTime + st.DPTime; sum > st.WallTime {
				t.Fatalf("%s query %q: stages sum to %v (bound %v + extract %v + match %v + dp %v), over the %v wall",
					name, q.ID, sum, st.BoundTime, st.ExtractTime, st.MatchTime, st.DPTime, st.WallTime)
			}
		}
	}
}

// TestSearchBatchMatchesSingle checks the batch entry point returns exactly
// the per-query results and that LabelsAll agrees with Labels.
func TestSearchBatchMatchesSingle(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 11, SeriesPerClass: 4})
	ix, err := NewIndex(d.Series, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	batch, stats, err := ix.SearchBatch(context.Background(), d.Series, WithK(k))
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(d.Series) {
		t.Fatalf("batch returned %d results for %d queries", len(batch), len(d.Series))
	}
	if stats.Candidates != len(d.Series)*(len(d.Series)-1) {
		t.Fatalf("batch stats candidates %d, want %d", stats.Candidates, len(d.Series)*(len(d.Series)-1))
	}
	for i, s := range d.Series {
		single, _, err := ix.Search(context.Background(), s, WithK(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(single) != len(batch[i]) {
			t.Fatalf("query %d: batch %d vs single %d neighbours", i, len(batch[i]), len(single))
		}
		for j := range single {
			if single[j] != batch[i][j] {
				t.Fatalf("query %d rank %d: batch %+v vs single %+v", i, j, batch[i][j], single[j])
			}
		}
	}

	all, _, err := ix.LabelsAll(context.Background(), WithK(k))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range d.Series {
		want, err := ix.Labels(context.Background(), s, WithK(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(all[i]) != len(want) {
			t.Fatalf("series %d: LabelsAll %v vs Labels %v", i, all[i], want)
		}
		for j := range want {
			if all[i][j] != want[j] {
				t.Fatalf("series %d: LabelsAll %v vs Labels %v", i, all[i], want)
			}
		}
	}

	if _, _, err := ix.SearchBatch(context.Background(), nil, WithK(k)); err == nil {
		t.Fatal("empty batch accepted")
	}
}

// TestLabelsAllWithoutIDs checks leave-one-out holds by position when
// series carry no IDs: with k=1 and two unlabeled-ID series, each must be
// classified by the *other* one — a self-match at distance 0 would hand
// every series its own label and silently inflate accuracy.
func TestLabelsAllWithoutIDs(t *testing.T) {
	data := []Series{
		NewSeries("", 0, []float64{0, 1, 2, 3, 2, 1, 0, 1}),
		NewSeries("", 1, []float64{5, 4, 3, 2, 3, 4, 5, 4}),
	}
	ix, err := NewIndex(data, Options{Strategy: FullGrid})
	if err != nil {
		t.Fatal(err)
	}
	labels, stats, err := ix.LabelsAll(context.Background(), WithK(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(labels[0]) != 1 || labels[0][0] != 1 {
		t.Fatalf("series 0 got labels %v, want [1] (its only true neighbour)", labels[0])
	}
	if len(labels[1]) != 1 || labels[1][0] != 0 {
		t.Fatalf("series 1 got labels %v, want [0]", labels[1])
	}
	if stats.Candidates != 2 {
		t.Fatalf("expected 1 candidate per query after positional self-exclusion, got %d total", stats.Candidates)
	}
}
