package sdtw

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"sdtw/internal/dtw"
)

// legacyEngineTopK reimplements the pre-redesign Index.TopK contract as a
// reference: a scan of the engine's distance to every candidate (skipping
// candidates sharing the query's non-empty ID), ranked ascending with
// ties broken by position, truncated to k. The pre-redesign cascade was
// property-tested bit-identical to exactly this scan, so agreeing with it
// proves the redesigned Search path returns the pre-redesign answers.
func legacyEngineTopK(t *testing.T, ix *Index, query Series, k int) []Neighbor {
	t.Helper()
	var all []Neighbor
	for i := 0; i < ix.Len(); i++ {
		s := ix.Series(i)
		if s.ID != "" && s.ID == query.ID {
			continue
		}
		res, err := ix.Engine().DistanceSeries(query, s)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, Neighbor{Pos: i, ID: s.ID, Label: s.Label, Distance: res.Distance})
	}
	return rankTruncate(all, k)
}

// legacyWindowedTopK reimplements the pre-redesign BoundedIndex.TopK
// contract: a scan of the Sakoe-Chiba windowed DTW distance at exactly
// the envelope radius, same ID exclusion, same ranking.
func legacyWindowedTopK(t *testing.T, data []Series, query Series, radius, k int) []Neighbor {
	t.Helper()
	length := len(query.Values)
	var b dtw.Band
	if radius < length {
		b = dtw.SakoeChibaRadius(length, length, radius)
	} else {
		b = dtw.FullBand(length, length)
	}
	var all []Neighbor
	for i, s := range data {
		if s.ID != "" && s.ID == query.ID {
			continue
		}
		d, _, err := dtw.Banded(query.Values, s.Values, b)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, Neighbor{Pos: i, ID: s.ID, Label: s.Label, Distance: d})
	}
	return rankTruncate(all, k)
}

func rankTruncate(all []Neighbor, k int) []Neighbor {
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

// TestSearchEquivalentToPreRedesignEngineTopK is the tentpole acceptance
// property for the engine backend: on the Gun and Trace reproduction
// workloads, across every band strategy, the unified Search returns
// neighbours bit-identical to the pre-redesign TopK contract.
func TestSearchEquivalentToPreRedesignEngineTopK(t *testing.T) {
	datasets := map[string]*Dataset{
		"Gun":   GunDataset(DatasetConfig{Seed: 81, SeriesPerClass: 5}),
		"Trace": TraceDataset(DatasetConfig{Seed: 82, SeriesPerClass: 3}),
	}
	for dsName, d := range datasets {
		for _, opts := range cascadeConfigs() {
			name := fmt.Sprintf("%s/%v", dsName, opts.Strategy)
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
			d := d
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				ix, err := NewIndex(d.Series, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, qi := range []int{0, d.Len() / 2, d.Len() - 1} {
					q := d.Series[qi]
					for _, k := range []int{1, 5, d.Len() + 10} {
						want := legacyEngineTopK(t, ix, q, k)
						got, _, err := ix.Search(context.Background(), q, WithK(k))
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != len(want) {
							t.Fatalf("query %d k=%d: %d neighbours, want %d", qi, k, len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("query %d k=%d rank %d: Search %+v, pre-redesign %+v",
									qi, k, i, got[i], want[i])
							}
						}
					}
				}
			})
		}
	}
}

// TestSearchEquivalentToPreRedesignWindowedTopK is the same acceptance
// property for the windowed backend, across warping radii including the
// unconstrained case.
func TestSearchEquivalentToPreRedesignWindowedTopK(t *testing.T) {
	datasets := map[string]*Dataset{
		"Gun":   GunDataset(DatasetConfig{Seed: 83, SeriesPerClass: 5}),
		"Trace": TraceDataset(DatasetConfig{Seed: 84, SeriesPerClass: 3}),
	}
	for dsName, d := range datasets {
		for _, radius := range []int{-1, 5, 20} {
			name := fmt.Sprintf("%s/radius=%d", dsName, radius)
			d := d
			radius := radius
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				ix, err := NewWindowedIndex(d.Series, radius)
				if err != nil {
					t.Fatal(err)
				}
				for _, qi := range []int{0, d.Len() - 1} {
					q := d.Series[qi]
					for _, k := range []int{1, 5, d.Len() + 10} {
						want := legacyWindowedTopK(t, d.Series, q, ix.Radius(), k)
						got, _, err := ix.Search(context.Background(), q, WithK(k))
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != len(want) {
							t.Fatalf("query %d k=%d: %d neighbours, want %d", qi, k, len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("query %d k=%d rank %d: Search %+v, pre-redesign %+v",
									qi, k, i, got[i], want[i])
							}
						}
					}
				}
			})
		}
	}
}
