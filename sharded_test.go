package sdtw

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// shardedAndFlat builds, over the same collection, one ShardedIndex per
// shard count in ns and the single-process Index the exactness property
// compares against, for the named backend.
func shardedAndFlat(t *testing.T, backend string, data []Series, ns []int) (map[int]*ShardedIndex, *Index) {
	t.Helper()
	sharded := make(map[int]*ShardedIndex, len(ns))
	var flat *Index
	var err error
	switch backend {
	case "engine":
		opts := Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10}
		flat, err = NewIndex(data, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range ns {
			sharded[n], err = NewShardedIndex(data, n, opts)
			if err != nil {
				t.Fatalf("%d shards: %v", n, err)
			}
		}
	case "windowed":
		flat, err = NewWindowedIndex(data, 12)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range ns {
			sharded[n], err = NewShardedWindowedIndex(data, n, 12)
			if err != nil {
				t.Fatalf("%d shards: %v", n, err)
			}
		}
	default:
		t.Fatalf("unknown backend %q", backend)
	}
	return sharded, flat
}

// flatHits maps a single-process neighbour list to the hits a sharded
// search must report for it — ID and Label looked up by position, Pos -1
// — so it compares field-for-field with the sharded result.
func flatHits(ix *Index, nbrs []Neighbor) []Hit {
	hits := make([]Hit, len(nbrs))
	for i, nb := range nbrs {
		s := ix.Series(nb.Pos)
		hits[i] = Hit{Pos: -1, ID: s.ID, Label: s.Label, Distance: nb.Distance}
	}
	return hits
}

// requireSameHits asserts bit-identity: same IDs in the same order and
// distances equal down to the last bit (math.Float64bits).
func requireSameHits(t *testing.T, label string, want, got []Hit) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d hits, want %d\n got: %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if want[i].ID != got[i].ID {
			t.Fatalf("%s: hit %d is %q, want %q\n got: %v\nwant: %v", label, i, got[i].ID, want[i].ID, got, want)
		}
		if math.Float64bits(want[i].Distance) != math.Float64bits(got[i].Distance) {
			t.Fatalf("%s: hit %d (%q) distance %v (bits %x), want %v (bits %x)",
				label, i, got[i].ID, got[i].Distance, math.Float64bits(got[i].Distance),
				want[i].Distance, math.Float64bits(want[i].Distance))
		}
		if want[i].Label != got[i].Label {
			t.Fatalf("%s: hit %d (%q) label %d, want %d", label, i, got[i].ID, got[i].Label, want[i].Label)
		}
		if want[i].Pos != got[i].Pos {
			t.Fatalf("%s: hit %d (%q) position %d, want %d", label, i, got[i].ID, got[i].Pos, want[i].Pos)
		}
	}
}

// TestOneResultType: Neighbor is the only result struct. A flat
// neighbour carries the ID and Label of the series at its Pos, and a
// sharded hit is that same value — every field, distance bits included —
// with Pos -1, on both backends and after mutation has renumbered the
// flat positions.
func TestOneResultType(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 13, SeriesPerClass: 5})
	ctx := context.Background()
	for _, backend := range []string{"engine", "windowed"} {
		sharded, flat := shardedAndFlat(t, backend, d.Series[:16], []int{3})
		for _, s := range d.Series[16:] {
			if err := flat.Add(s); err != nil {
				t.Fatal(err)
			}
			if err := sharded[3].Add(s); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range []string{d.Series[0].ID, d.Series[7].ID} {
			if err := flat.Remove(id); err != nil {
				t.Fatal(err)
			}
			if err := sharded[3].Remove(id); err != nil {
				t.Fatal(err)
			}
		}
		for qi := 1; qi < d.Len(); qi += 4 {
			nbrs, _, err := flat.Search(ctx, d.Series[qi], WithK(5))
			if err != nil {
				t.Fatal(err)
			}
			hits, _, err := sharded[3].Search(ctx, d.Series[qi], WithK(5))
			if err != nil {
				t.Fatal(err)
			}
			if len(hits) != len(nbrs) {
				t.Fatalf("%s/query %d: %d hits for %d neighbours", backend, qi, len(hits), len(nbrs))
			}
			for i, nb := range nbrs {
				if s := flat.Series(nb.Pos); nb.ID != s.ID || nb.Label != s.Label {
					t.Fatalf("%s/query %d: neighbour %+v is not the series at its position (%q, label %d)",
						backend, qi, nb, s.ID, s.Label)
				}
				want := nb
				want.Pos = -1
				if hits[i] != want || math.Float64bits(hits[i].Distance) != math.Float64bits(want.Distance) {
					t.Fatalf("%s/query %d: hit %d is %+v, want %+v", backend, qi, i, hits[i], want)
				}
			}
		}
	}
}

// TestShardedSearchExactness is the serving layer's headline property:
// for any shard count, the merged sharded top-k is bit-identical (IDs
// and Float64bits distances) to a single-process Index.Search over the
// same collection — on both backends, across ks, and for thresholded
// range searches.
func TestShardedSearchExactness(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 7, SeriesPerClass: 6})
	ctx := context.Background()
	shardCounts := []int{1, 2, 4, 7}
	for _, backend := range []string{"engine", "windowed"} {
		sharded, flat := shardedAndFlat(t, backend, d.Series, shardCounts)
		for qi := 0; qi < d.Len(); qi += 3 {
			query := d.Series[qi]
			for _, k := range []int{1, 3, 10} {
				nbrs, _, err := flat.Search(ctx, query, WithK(k))
				if err != nil {
					t.Fatal(err)
				}
				want := flatHits(flat, nbrs)
				for _, n := range shardCounts {
					got, _, err := sharded[n].Search(ctx, query, WithK(k))
					if err != nil {
						t.Fatalf("%s/%d shards: %v", backend, n, err)
					}
					requireSameHits(t, fmt.Sprintf("%s/query %d/k=%d/%d shards", backend, qi, k, n), want, got)
				}
			}
			// Thresholded range search: pick a cutoff that keeps a few.
			nbrs, _, err := flat.Search(ctx, query, WithK(5))
			if err != nil {
				t.Fatal(err)
			}
			cut := nbrs[len(nbrs)-1].Distance
			wantN, _, err := flat.Search(ctx, query, WithThreshold(cut))
			if err != nil {
				t.Fatal(err)
			}
			want := flatHits(flat, wantN)
			for _, n := range shardCounts {
				got, _, err := sharded[n].Search(ctx, query, WithThreshold(cut))
				if err != nil {
					t.Fatalf("%s/%d shards: %v", backend, n, err)
				}
				requireSameHits(t, fmt.Sprintf("%s/query %d/threshold/%d shards", backend, qi, n), want, got)
			}
		}
	}
}

// TestShardedSearchExactnessAfterMutation re-checks the property after a
// mix of Adds and Removes: the sharded index must keep answering exactly
// like a flat index over the same post-mutation collection, including
// the insertion-order tie-breaks Remove renumbering shifts around.
func TestShardedSearchExactnessAfterMutation(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 11, SeriesPerClass: 5})
	extra := TraceDataset(DatasetConfig{Seed: 23, SeriesPerClass: 2})
	ctx := context.Background()
	opts := Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10}

	si, err := NewShardedIndex(d.Series, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate: drop every 4th series, then add the extra ones under fresh IDs.
	current := append([]Series(nil), d.Series...)
	for i := d.Len() - 4; i >= 0; i -= 4 {
		if err := si.Remove(current[i].ID); err != nil {
			t.Fatal(err)
		}
		current = append(current[:i], current[i+1:]...)
	}
	for i, s := range extra.Series {
		s.ID = fmt.Sprintf("extra-%d", i)
		if err := si.Add(s); err != nil {
			t.Fatal(err)
		}
		current = append(current, s)
	}
	flat, err := NewIndex(current, opts)
	if err != nil {
		t.Fatal(err)
	}
	if si.Len() != flat.Len() {
		t.Fatalf("sharded holds %d series, flat %d", si.Len(), flat.Len())
	}
	for qi := 0; qi < len(current); qi += 5 {
		query := current[qi]
		nbrs, _, err := flat.Search(ctx, query, WithK(4))
		if err != nil {
			t.Fatal(err)
		}
		want := flatHits(flat, nbrs)
		got, _, err := si.Search(ctx, query, WithK(4))
		if err != nil {
			t.Fatal(err)
		}
		requireSameHits(t, fmt.Sprintf("post-mutation query %d", qi), want, got)
	}
}

// TestShardedEmptyAndGrow pins the serving lifecycle a single Index
// forbids: start empty, answer searches with no hits, grow by Add,
// shrink back to empty by Remove.
func TestShardedEmptyAndGrow(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 3, SeriesPerClass: 2})
	ctx := context.Background()
	si, err := NewShardedIndex(nil, 3, Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	hits, _, err := si.Search(ctx, d.Series[0], WithK(3))
	if err != nil {
		t.Fatalf("search on empty sharded index: %v", err)
	}
	if len(hits) != 0 {
		t.Fatalf("empty index returned %d hits", len(hits))
	}
	for _, s := range d.Series {
		if err := si.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if si.Len() != d.Len() {
		t.Fatalf("Len = %d after %d Adds", si.Len(), d.Len())
	}
	hits, _, err = si.Search(ctx, d.Series[0], WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	// d.Series[0] is indexed under its own ID, so it is self-excluded.
	if len(hits) != 2 || hits[0].ID == d.Series[0].ID {
		t.Fatalf("unexpected hits %v", hits)
	}
	for _, s := range d.Series {
		if err := si.Remove(s.ID); err != nil {
			t.Fatal(err)
		}
	}
	if si.Len() != 0 {
		t.Fatalf("Len = %d after removing everything", si.Len())
	}
	if err := si.Remove(d.Series[0].ID); !IsErr(err, ErrUnknownID) {
		t.Fatalf("Remove on empty index: %v, want ErrUnknownID", err)
	}
}

// TestShardedValidation pins the sharded surface's own validation:
// IDs are mandatory, duplicates refused, WithExclude rejected.
func TestShardedValidation(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 5, SeriesPerClass: 2})
	ctx := context.Background()
	if _, err := NewShardedIndex([]Series{{Values: []float64{1, 2, 3}}}, 2, DefaultOptions()); !IsErr(err, ErrNoID) {
		t.Fatalf("unkeyed series: %v, want ErrNoID", err)
	}
	dup := []Series{NewSeries("a", 0, []float64{1, 2}), NewSeries("a", 0, []float64{3, 4})}
	if _, err := NewShardedIndex(dup, 2, DefaultOptions()); !IsErr(err, ErrDuplicateID) {
		t.Fatalf("duplicate IDs: %v, want ErrDuplicateID", err)
	}
	si, err := NewShardedIndex(d.Series, 2, Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if err := si.Add(Series{Values: []float64{1, 2, 3}}); !IsErr(err, ErrNoID) {
		t.Fatalf("Add unkeyed: %v, want ErrNoID", err)
	}
	if err := si.Add(d.Series[0]); !IsErr(err, ErrDuplicateID) {
		t.Fatalf("Add duplicate: %v, want ErrDuplicateID", err)
	}
	if _, _, err := si.Search(ctx, d.Series[0], WithExclude(0)); err == nil {
		t.Fatal("WithExclude on sharded search should be rejected")
	}
	if _, _, err := si.Search(ctx, Series{ID: "q"}, WithK(1)); !IsErr(err, ErrEmptySeries) {
		t.Fatalf("empty query: %v, want ErrEmptySeries", err)
	}
}

// TestShardedSearchConcurrentMutation hammers Search against Add/Remove
// (run with -race): searches must never block behind mutations or see a
// half-published shard.
func TestShardedSearchConcurrentMutation(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 29, SeriesPerClass: 4})
	ctx := context.Background()
	si, err := NewShardedIndex(d.Series, 4, Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 5; round++ {
			for i, s := range d.Series {
				fresh := s
				fresh.ID = fmt.Sprintf("churn-%d-%d", round, i)
				if err := si.Add(fresh); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
				if err := si.Remove(fresh.ID); err != nil {
					t.Errorf("Remove: %v", err)
					return
				}
			}
		}
	}()
	for i := 0; i < 40; i++ {
		if _, _, err := si.Search(ctx, d.Series[i%d.Len()], WithK(3)); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}
