package retrieve

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sdtw/internal/band"
	"sdtw/internal/core"
	"sdtw/internal/datasets"
	"sdtw/internal/dtw"
	"sdtw/internal/lower"
	"sdtw/internal/series"
)

// TestEngineCascadeMatchesBruteForce holds the engine cascade exact under
// fixed-core adaptive widths capped at 0.30 of the length: the one band
// configuration that reads salient features and still has an LB_Keogh
// envelope radius below the series length, so the Keogh stage prunes
// against a narrow envelope built from the band geometry. On random walks
// of equal and unequal lengths and on the Gun and Trace generators, every
// search — with and without early abandoning — returns the brute-force
// ranking of the engine's distances bit for bit, and LB_Kim, LB_Keogh at
// the backend's envelope radius and exact DTW bound each banded distance.
func TestEngineCascadeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	collections := map[string][]series.Series{
		"equal-length":   randomWalks(rng, 18, 0, []int{64}),
		"unequal-length": randomWalks(rng, 14, 0, []int{52, 56, 60, 64, 68}),
		"Gun":            datasets.Gun(datasets.Config{Seed: 81, SeriesPerClass: 5}).Series,
		"Trace":          datasets.Trace(datasets.Config{Seed: 82, SeriesPerClass: 3}).Series,
	}
	opts := core.DefaultOptions()
	opts.Band = band.Config{Strategy: band.FixedCoreAdaptiveWidth, MaxWidthFrac: 0.30}
	engine := core.NewEngine(opts)
	backend := NewEngineBackend(engine, "fc,aw+maxw", false)
	for name, data := range collections {
		data := data
		t.Run(name+"/fc,aw+maxw", func(t *testing.T) {
			t.Parallel()
			if m := len(data[0].Values); backend.EnvelopeRadius(m) >= m {
				t.Fatalf("envelope radius %d at length %d: the case needs one below the length", backend.EnvelopeRadius(m), m)
			}
			c, err := New(backend, data, 2, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.EnableSketches(16); err != nil {
				t.Fatal(err)
			}
			external := randomWalks(rand.New(rand.NewSource(99)), 1, 0, []int{len(data[0].Values)})[0]
			external.ID = "external"
			for _, q := range []series.Series{data[0], data[len(data)/2], data[len(data)-1], external} {
				for _, k := range []int{1, 3, 100} {
					want := bruteTopK(t, engine, data, q, k)
					for _, noAbandon := range []bool{false, true} {
						p := DefaultParams()
						p.K, p.NoAbandon = k, noAbandon
						got, stats, err := c.Search(context.Background(), q, p)
						if err != nil {
							t.Fatal(err)
						}
						if !sameNeighbors(got, want) {
							t.Fatalf("query %s k=%d noAbandon=%v: got %+v, want %+v (stats %v)", q.ID, k, noAbandon, got, want, stats)
						}
						if total := stats.PrunedSketch + stats.PrunedKim + stats.PrunedKeogh + stats.Evaluated; total != stats.Candidates {
							t.Fatalf("stats do not partition candidates: %v", stats)
						}
					}
				}
				for _, y := range data {
					checkAdmissible(t, engine, backend, q, y)
				}
			}
		})
	}
}

// bruteTopK is the reference scan the cascade must agree with: the
// engine's distance from query to every series of data not sharing its
// non-empty ID, ranked ascending with ties broken by position.
func bruteTopK(t *testing.T, engine *core.Engine, data []series.Series, query series.Series, k int) []Neighbor {
	t.Helper()
	var all []Neighbor
	for i, s := range data {
		if s.ID != "" && s.ID == query.ID {
			continue
		}
		res, err := engine.Distance(query, s)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, Neighbor{Pos: i, ID: s.ID, Label: s.Label, Distance: res.Distance})
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].Distance < all[b].Distance })
	return all[:min(k, len(all))]
}

// checkAdmissible holds LB_Kim, and LB_Keogh at the backend's envelope
// radius when the lengths match, at or below the banded distance from x
// to y, and the banded distance at or above exact DTW.
func checkAdmissible(t *testing.T, engine *core.Engine, backend *Backend, x, y series.Series) {
	t.Helper()
	res, err := engine.Distance(x, y)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := dtw.Distance(x.Values, y.Values, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance < exact-1e-9*(1+math.Abs(exact)) {
		t.Fatalf("%s vs %s: banded distance %v below exact DTW %v", x.ID, y.ID, res.Distance, exact)
	}
	kim, err := lower.Kim(x.Values, y.Values, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := lower.ValidateBound(kim, res.Distance); err != nil {
		t.Fatalf("%s vs %s: LB_Kim inadmissible: %v", x.ID, y.ID, err)
	}
	if len(x.Values) != len(y.Values) {
		return
	}
	r := backend.EnvelopeRadius(len(y.Values))
	keogh, err := lower.Keogh(x.Values, lower.NewEnvelope(y.Values, r), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := lower.ValidateBound(keogh, res.Distance); err != nil {
		t.Fatalf("%s vs %s (radius %d): LB_Keogh inadmissible: %v", x.ID, y.ID, r, err)
	}
}
