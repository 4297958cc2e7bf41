package sdtw

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"sdtw/internal/shard"
)

// shardedTestOpts is the engine configuration of the "engine" backend in
// the sharded property tests.
var shardedTestOpts = Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10}

// newFlat builds the single-process Index the exactness properties
// compare against, for the named backend.
func newFlat(t *testing.T, backend string, data []Series) *Index {
	t.Helper()
	var flat *Index
	var err error
	switch backend {
	case "engine":
		flat, err = NewIndex(data, shardedTestOpts)
	case "windowed":
		flat, err = NewWindowedIndex(data, 12)
	default:
		t.Fatalf("unknown backend %q", backend)
	}
	if err != nil {
		t.Fatal(err)
	}
	return flat
}

// shardedAndFlat builds, over the same collection, one ShardedIndex per
// shard count in ns and the flat Index of newFlat, for the named backend.
func shardedAndFlat(t *testing.T, backend string, data []Series, ns []int) (map[int]*ShardedIndex, *Index) {
	t.Helper()
	sharded := make(map[int]*ShardedIndex, len(ns))
	for _, n := range ns {
		var err error
		if backend == "engine" {
			sharded[n], err = NewShardedIndex(data, n, shardedTestOpts)
		} else {
			sharded[n], err = NewShardedWindowedIndex(data, n, 12)
		}
		if err != nil {
			t.Fatalf("%d shards: %v", n, err)
		}
	}
	return sharded, newFlat(t, backend, data)
}

// openSharded opens the store root a sharded index of the named backend
// was exported to.
func openSharded(t *testing.T, backend, dir string) *ShardedIndex {
	t.Helper()
	var si *ShardedIndex
	var err error
	if backend == "engine" {
		si, err = OpenShardedIndex(dir, shardedTestOpts)
	} else {
		si, err = OpenShardedWindowedIndex(dir)
	}
	if err != nil {
		t.Fatalf("opening %s: %v", dir, err)
	}
	return si
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

// requireShardedEqualsFlat asserts the exactness property on a few
// queries: top-k and thresholded range searches of si are bit-identical
// to flat's.
func requireShardedEqualsFlat(t *testing.T, label string, si *ShardedIndex, flat *Index, queries []Series) {
	t.Helper()
	ctx := context.Background()
	for qi, query := range queries {
		nbrs, _, err := flat.Search(ctx, query, WithK(5))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := si.Search(ctx, query, WithK(5))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireSameHits(t, fmt.Sprintf("%s/query %d/k=5", label, qi), flatHits(flat, nbrs), got)
		cut := nbrs[len(nbrs)-1].Distance
		nbrs, _, err = flat.Search(ctx, query, WithThreshold(cut))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err = si.Search(ctx, query, WithThreshold(cut))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireSameHits(t, fmt.Sprintf("%s/query %d/threshold", label, qi), flatHits(flat, nbrs), got)
	}
}

// drainAndRefill runs the history that empties shards and fills them
// again: every series removed, so every shard drains and the index
// answers with no hits; the collection re-added in reverse; then shard
// 0's series removed and re-added once more while the other shards keep
// serving. It returns the collection in its final insertion order — the
// one a flat index must be built over to break ties alike.
func drainAndRefill(t *testing.T, label string, si *ShardedIndex, data []Series) []Series {
	t.Helper()
	for _, s := range data {
		if err := si.Remove(s.ID); err != nil {
			t.Fatalf("%s: draining: %v", label, err)
		}
	}
	if si.Len() != 0 {
		t.Fatalf("%s: drained index holds %d series", label, si.Len())
	}
	if hits, _, err := si.Search(context.Background(), data[0], WithK(3)); err != nil || len(hits) != 0 {
		t.Fatalf("%s: search on the drained index = %v, %v", label, hits, err)
	}
	var kept, moved []Series
	for i := len(data) - 1; i >= 0; i-- {
		if err := si.Add(data[i]); err != nil {
			t.Fatalf("%s: refilling: %v", label, err)
		}
		if shard.Route(data[i].ID, si.Shards()) == 0 {
			moved = append(moved, data[i])
		} else {
			kept = append(kept, data[i])
		}
	}
	for _, s := range moved {
		if err := si.Remove(s.ID); err != nil {
			t.Fatalf("%s: draining shard 0: %v", label, err)
		}
	}
	if n := si.ShardSizes()[0]; n != 0 || si.Len() != len(kept) {
		t.Fatalf("%s: shard 0 holds %d series after its drain, the index %d of %d", label, n, si.Len(), len(kept))
	}
	for _, s := range moved {
		if err := si.Add(s); err != nil {
			t.Fatalf("%s: refilling shard 0: %v", label, err)
		}
	}
	return append(kept, moved...)
}

// TestShardedSearchExactness is the serving layer's headline property:
// for any shard count, the merged sharded top-k is bit-identical (IDs
// and Float64bits distances) to a single-process Index.Search over the
// same collection — on both backends, across ks, and for thresholded
// range searches — and stays so through a history that drains shards to
// empty and refills them, in RAM and written through to a store root.
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

		queries := []Series{d.Series[1], d.Series[d.Len()/2], d.Series[d.Len()-1]}
		for _, n := range shardCounts {
			label := fmt.Sprintf("%s/%d shards", backend, n)
			dir := filepath.Join(t.TempDir(), "root")
			if err := sharded[n].SaveStore(dir); err != nil {
				t.Fatal(err)
			}
			final := drainAndRefill(t, label+"/ram", sharded[n], d.Series)
			flat := newFlat(t, backend, final)
			requireShardedEqualsFlat(t, label+"/ram", sharded[n], flat, queries)

			cold := openSharded(t, backend, dir)
			drainAndRefill(t, label+"/store", cold, d.Series)
			requireShardedEqualsFlat(t, label+"/store", cold, flat, queries)
			// Every shard has drained and refilled with resident values; the
			// index serves from its stores all the same.
			if err := cold.SaveStore(filepath.Join(t.TempDir(), "again")); !IsErr(err, ErrStoreBacked) {
				t.Fatalf("%s: SaveStore of a store-backed index: %v, want ErrStoreBacked", label, err)
			}
			if err := cold.CloseStore(); err != nil {
				t.Fatal(err)
			}
			back := openSharded(t, backend, dir)
			requireShardedEqualsFlat(t, label+"/reopened", back, flat, queries)
			if err := back.CloseStore(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestShardedReAddUnderDrainedShardsLastID is the stale-feature
// regression: a shard's last series is removed, a search still running on
// the pre-Remove snapshot re-derives that series' features into the shard
// engine's read-through cache, and a different series is then added under
// the same ID. The refill must extract from the new values — admission
// into an empty shard forgets the ID first, like any other — or the shard
// serves the removed series' features under that ID for good.
func TestShardedReAddUnderDrainedShardsLastID(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 41, SeriesPerClass: 4})
	opts := DefaultOptions()
	const shards = 4
	old := d.Series[0]
	sh := shard.Route(old.ID, shards)
	// old is the only series of its shard.
	data := []Series{old}
	for _, s := range d.Series[1:] {
		if shard.Route(s.ID, shards) != sh {
			data = append(data, s)
		}
	}
	si, err := NewShardedIndex(data, shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := si.Remove(old.ID); err != nil {
		t.Fatal(err)
	}
	if n := si.ShardSizes()[sh]; n != 0 {
		t.Fatalf("shard %d holds %d series after removing its only one", sh, n)
	}
	// What the in-flight search's DP stage does to the cache.
	if _, err := si.engines[sh].Features(old); err != nil {
		t.Fatal(err)
	}
	fresh := d.Series[d.Len()-1]
	fresh.ID = old.ID
	if err := si.Add(fresh); err != nil {
		t.Fatal(err)
	}
	got, err := si.engines[sh].Features(fresh) // the cache entry searches read
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExtractFeatures(fresh.Values, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shard serves %d cached features under %q, a fresh extraction of its values gives %d",
			len(got), fresh.ID, len(want))
	}
	rebuilt, err := NewShardedIndex(append(data[1:len(data):len(data)], fresh), shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, probe := range d.Series[1:4] {
		probe.ID = "probe"
		gotHits, _, err := si.Search(ctx, probe, WithK(si.Len()))
		if err != nil {
			t.Fatal(err)
		}
		wantHits, _, err := rebuilt.Search(ctx, probe, WithK(si.Len()))
		if err != nil {
			t.Fatal(err)
		}
		requireSameHits(t, "refilled vs rebuilt", wantHits, gotHits)
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
