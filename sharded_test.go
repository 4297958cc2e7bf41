package sdtw

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"sdtw/internal/retrieve"
	"sdtw/internal/sketch"
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
		if route(data[i].ID, si.Shards()) == 0 {
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
// regression: a shard's last series is removed while a search still runs
// on the pre-Remove snapshot and evaluates it, and a different series is
// then added under the same ID. The refill must serve features extracted
// from the new values, or the shard answers with the removed series'
// features under that ID for good.
func TestShardedReAddUnderDrainedShardsLastID(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 41, SeriesPerClass: 4})
	opts := DefaultOptions()
	ctx := context.Background()
	const shards = 4
	old := d.Series[0]
	sh := route(old.ID, shards)
	// old is the only series of its shard.
	data := []Series{old}
	for _, s := range d.Series[1:] {
		if route(s.ID, shards) != sh {
			data = append(data, s)
		}
	}
	si, err := NewShardedIndex(data, shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	pre := si.shards[sh].snap.Load()
	if err := si.Remove(old.ID); err != nil {
		t.Fatal(err)
	}
	if n := si.ShardSizes()[sh]; n != 0 {
		t.Fatalf("shard %d holds %d series after removing its only one", sh, n)
	}
	// The in-flight search: it evaluates old on the pre-Remove snapshot.
	inFlight := old
	inFlight.ID = "in-flight"
	nbrs, _, err := pre.core.Search(ctx, inFlight, retrieve.DefaultParams())
	if err != nil || len(nbrs) != 1 || nbrs[0].ID != old.ID || nbrs[0].Distance != 0 {
		t.Fatalf("search on the pre-Remove snapshot: %v, %v; want %q at distance 0", nbrs, err, old.ID)
	}
	fresh := d.Series[d.Len()-1]
	fresh.ID = old.ID
	if err := si.Add(fresh); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := NewShardedIndex(append(data[1:len(data):len(data)], fresh), shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The first probe is the refilled series itself: a member query takes
	// the features its shard holds for it.
	probes := []Series{fresh}
	for _, probe := range d.Series[1:4] {
		probe.ID = "probe"
		probes = append(probes, probe)
	}
	for _, probe := range probes {
		gotHits, _, err := si.Search(ctx, probe, WithK(si.Len()))
		if err != nil {
			t.Fatal(err)
		}
		wantHits, _, err := rebuilt.Search(ctx, probe, WithK(si.Len()))
		if err != nil {
			t.Fatal(err)
		}
		requireSameHits(t, "refilled vs rebuilt, probe "+probe.ID, wantHits, gotHits)
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
// at least one shard, IDs are mandatory, duplicates refused, WithExclude
// rejected.
func TestShardedValidation(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 5, SeriesPerClass: 2})
	ctx := context.Background()
	for _, shards := range []int{0, -1} {
		if _, err := NewShardedIndex(d.Series, shards, DefaultOptions()); err == nil {
			t.Fatalf("NewShardedIndex accepted %d shards", shards)
		}
		if _, err := NewShardedWindowedIndex(d.Series, shards, 4); err == nil {
			t.Fatalf("NewShardedWindowedIndex accepted %d shards", shards)
		}
	}
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

// TestShardedEmptyIndexValidatesQueries: an index with no series refuses
// the queries a full one refuses — empty, non-finite, and on the windowed
// backend the wrong length — on both families, whether it never held a
// series or drained to empty, in RAM and reopened from its store; a
// valid query then answers with no hits and no error.
func TestShardedEmptyIndexValidatesQueries(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 17, SeriesPerClass: 2})
	n := d.Series[0].Len()
	withValue := func(v float64) Series {
		vals := append([]float64(nil), d.Series[1].Values...)
		vals[n/2] = v
		return Series{Values: vals}
	}
	drain := func(si *ShardedIndex) *ShardedIndex {
		for _, s := range d.Series {
			if err := si.Remove(s.ID); err != nil {
				t.Fatal(err)
			}
		}
		return si
	}
	reopen := func(backend string, si *ShardedIndex) *ShardedIndex {
		dir := filepath.Join(t.TempDir(), "root")
		if err := si.SaveStore(dir); err != nil {
			t.Fatal(err)
		}
		back := openSharded(t, backend, dir)
		t.Cleanup(func() { back.CloseStore() })
		return back
	}
	newEngine := func(data []Series) *ShardedIndex {
		si, err := NewShardedIndex(data, 3, shardedTestOpts)
		if err != nil {
			t.Fatal(err)
		}
		return si
	}
	newWindowed := func() *ShardedIndex {
		si, err := NewShardedWindowedIndex(d.Series, 3, 12)
		if err != nil {
			t.Fatal(err)
		}
		return si
	}
	indexes := map[string]*ShardedIndex{
		"engine/never-filled":         newEngine(nil),
		"engine/drained":              drain(newEngine(d.Series)),
		"engine/never-filled/store":   reopen("engine", newEngine(nil)),
		"windowed/drained":            drain(newWindowed()),
		"windowed/never-filled/store": reopen("windowed", drain(newWindowed())),
	}
	ctx := context.Background()
	for name, si := range indexes {
		if si.Len() != 0 {
			t.Fatalf("%s: holds %d series", name, si.Len())
		}
		refused := map[string]struct {
			query Series
			want  error
		}{
			"empty": {Series{ID: "q"}, ErrEmptySeries},
			"NaN":   {withValue(math.NaN()), ErrNonFinite},
			"+Inf":  {withValue(math.Inf(1)), ErrNonFinite},
		}
		if si.Radius() >= 0 {
			refused["length 3"] = struct {
				query Series
				want  error
			}{Series{Values: []float64{1, 2, 3}}, ErrLengthMismatch}
		}
		for label, tc := range refused {
			if hits, _, err := si.Search(ctx, tc.query, WithK(3)); !IsErr(err, tc.want) {
				t.Errorf("%s: %s query answered %v, %v; want %v", name, label, hits, err, tc.want)
			}
		}
		if hits, _, err := si.Search(ctx, d.Series[0], WithK(3)); err != nil || len(hits) != 0 {
			t.Errorf("%s: valid query answered %v, %v; want no hits and no error", name, hits, err)
		}
	}
}

// shardTestLength is the series length of shardTestData.
const shardTestLength = 32

// shardTestData returns n Gaussian-noise series of length
// shardTestLength with IDs s-000, s-001, ….
func shardTestData(n int, seed int64) []Series {
	rng := rand.New(rand.NewSource(seed))
	data := make([]Series, n)
	for i := range data {
		vals := make([]float64, shardTestLength)
		for j := range vals {
			vals[j] = rng.NormFloat64()
		}
		data[i] = Series{ID: fmt.Sprintf("s-%03d", i), Label: i % 3, Values: vals}
	}
	return data
}

// newShardTestIndex is a windowed sharded index over data: the windowed
// backend needs no engine options and exercises the full cascade.
func newShardTestIndex(t *testing.T, data []Series, shards int) *ShardedIndex {
	t.Helper()
	si, err := NewShardedWindowedIndex(data, shards, 4)
	if err != nil {
		t.Fatal(err)
	}
	return si
}

// mustSearchK runs a k-nearest search that must succeed.
func mustSearchK(t *testing.T, si *ShardedIndex, q Series, k int) []Hit {
	t.Helper()
	hits, _, err := si.Search(context.Background(), q, WithK(k))
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	return hits
}

// seqOf reports the insertion sequence the series with the given ID holds
// in the published snapshot of its shard.
func seqOf(si *ShardedIndex, id string) (uint64, bool) {
	snap := si.slot(id).snap.Load()
	pos, ok := snap.core.Pos(id)
	if !ok {
		return 0, false
	}
	return snap.seqs[pos], true
}

// TestShardRoute: routing is a pure function of (ID, shard count), in
// range, and pinned — a store root's shard directories are laid out by
// it, so a changed hash would strand every stored series in the wrong
// shard.
func TestShardRoute(t *testing.T) {
	golden := map[string]int{"s-000": 3, "s-001": 0, "gun-0-01": 0, "": 1}
	for id, want := range golden {
		if got := route(id, 4); got != want {
			t.Errorf("route(%q, 4) = %d, want %d", id, got, want)
		}
	}
	seen := make(map[int]bool)
	for _, s := range shardTestData(64, 1) {
		sh := route(s.ID, 5)
		if sh < 0 || sh >= 5 || sh != route(s.ID, 5) {
			t.Fatalf("route(%q, 5) = %d, then %d", s.ID, sh, route(s.ID, 5))
		}
		seen[sh] = true
		if route(s.ID, 1) != 0 {
			t.Fatalf("route(%q, 1) != 0", s.ID)
		}
	}
	if len(seen) != 5 {
		t.Fatalf("64 IDs reached only shards %v of 5", seen)
	}
}

// TestShardedConfigRefused: both internal construction paths refuse a
// shard count below one, a restore whose per-shard parts do not match its
// shard count, a duplicate ID and a series without one.
func TestShardedConfigRefused(t *testing.T) {
	data := shardTestData(4, 2)
	f, err := windowedFamilyOver(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, -1} {
		if _, err := newShardedIndex(f, data, shards, 0); err == nil {
			t.Fatalf("newShardedIndex accepted %d shards", shards)
		}
	}
	if _, err := restoreShardedIndex(f, DefaultSketchWidth, make([][]retrieve.ColdSeries, 3), make([][]uint64, 2), 0); !IsErr(err, ErrConfigMismatch) {
		t.Fatalf("restore with 3 parts for 2 shards: %v, want ErrConfigMismatch", err)
	}
	if _, err := restoreShardedIndex(f, DefaultSketchWidth, nil, nil, 0); !IsErr(err, ErrConfigMismatch) {
		t.Fatalf("restore with no shards: %v, want ErrConfigMismatch", err)
	}
	if _, err := newShardedIndex(f, append(data, data[0]), 2, 0); !IsErr(err, ErrDuplicateID) {
		t.Fatalf("duplicate ID: %v, want ErrDuplicateID", err)
	}
	if _, err := newShardedIndex(f, []Series{{Values: data[0].Values}}, 2, 0); !IsErr(err, ErrNoID) {
		t.Fatalf("missing ID: %v, want ErrNoID", err)
	}
}

// TestShardedNewAndRestoreColdAgree: an index rebuilt from its own
// per-shard snapshots — envelopes and sketches trusted, values behind
// loaders — answers bit-identically to the one built from the raw data.
func TestShardedNewAndRestoreColdAgree(t *testing.T) {
	warm := newShardTestIndex(t, shardTestData(40, 3), 3)
	parts := make([][]retrieve.ColdSeries, warm.Shards())
	seqs := make([][]uint64, warm.Shards())
	for i := range warm.shards {
		snap := warm.shards[i].snap.Load()
		part, envs := snap.core.Snapshot()
		seqs[i] = snap.seqs
		for j, s := range part {
			sk, err := sketch.FromEnvelope(envs[j], DefaultSketchWidth)
			if err != nil {
				t.Fatal(err)
			}
			vals := s.Values
			parts[i] = append(parts[i], retrieve.ColdSeries{
				ID: s.ID, Label: s.Label, N: len(vals), First: vals[0], Last: vals[len(vals)-1],
				Envelope: envs[j], Sketch: sk,
				Load: func() ([]float64, error) { return vals, nil },
			})
		}
	}
	cold, err := restoreShardedIndex(warm.family, DefaultSketchWidth, parts, seqs, warm.nextSeq.Load())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Len() != warm.Len() || cold.nextSeq.Load() != warm.nextSeq.Load() {
		t.Fatalf("restored %d series / next seq %d, want %d / %d", cold.Len(), cold.nextSeq.Load(), warm.Len(), warm.nextSeq.Load())
	}
	for qi, q := range shardTestData(6, 4) {
		q.ID = ""
		for _, k := range []int{1, 5, 40} {
			requireSameHits(t, fmt.Sprintf("query %d k=%d", qi, k), mustSearchK(t, warm, q, k), mustSearchK(t, cold, q, k))
		}
	}
}

// TestShardedSequences: Add hands out consecutive index-wide insertion
// sequences, a refused Add consumes none, Remove drops the series and its
// sequence, and a re-added ID gets a fresh sequence, not its old one.
func TestShardedSequences(t *testing.T) {
	data := shardTestData(10, 5)
	si := newShardTestIndex(t, data[:6], 3)
	for i, s := range data[:6] {
		if seq, ok := seqOf(si, s.ID); !ok || seq != uint64(i) {
			t.Fatalf("seq of %q = %d, %v; want %d", s.ID, seq, ok, i)
		}
	}
	for i, s := range data[6:] {
		if err := si.Add(s); err != nil {
			t.Fatal(err)
		}
		if seq, ok := seqOf(si, s.ID); !ok || seq != uint64(6+i) {
			t.Fatalf("Add(%q) took seq %d, %v; want %d", s.ID, seq, ok, 6+i)
		}
	}
	if err := si.Add(data[7]); !IsErr(err, ErrDuplicateID) {
		t.Fatalf("duplicate Add: %v, want ErrDuplicateID", err)
	}
	if si.nextSeq.Load() != 10 {
		t.Fatalf("a refused Add consumed a sequence: next is %d", si.nextSeq.Load())
	}
	if err := si.Remove(data[8].ID); err != nil {
		t.Fatal(err)
	}
	if err := si.Remove(data[8].ID); !IsErr(err, ErrUnknownID) {
		t.Fatalf("second Remove: %v, want ErrUnknownID", err)
	}
	if _, ok := seqOf(si, data[8].ID); ok {
		t.Fatal("a removed ID still holds a sequence")
	}
	if err := si.Remove(""); !IsErr(err, ErrNoID) {
		t.Fatalf("Remove of the empty ID: %v, want ErrNoID", err)
	}
	if err := si.Add(data[8]); err != nil {
		t.Fatal(err)
	}
	if seq, _ := seqOf(si, data[8].ID); seq != 10 {
		t.Fatalf("re-Add took seq %d, want 10", seq)
	}
}

// TestShardedDrainAndRefill: every shard may drain to empty — an empty
// index answers with no hits and no error — and fills again through Add.
// A drained shard is an empty core, not a missing one: every accessor
// keeps answering, and an index restores over shards that hold nothing.
func TestShardedDrainAndRefill(t *testing.T) {
	data := shardTestData(12, 6)
	si := newShardTestIndex(t, data, 3)
	for _, s := range data {
		if err := si.Remove(s.ID); err != nil {
			t.Fatalf("Remove(%q): %v", s.ID, err)
		}
	}
	if si.Len() != 0 {
		t.Fatalf("drained index holds %d series", si.Len())
	}
	for i, n := range si.ShardSizes() {
		snap := si.shards[i].snap.Load()
		if part, envs := snap.core.Snapshot(); n != 0 || len(part)+len(envs)+len(snap.seqs) != 0 {
			t.Fatalf("drained shard %d: size %d, snapshot %d/%d/%d", i, n, len(part), len(envs), len(snap.seqs))
		}
	}
	if err := si.Remove(data[0].ID); !IsErr(err, ErrUnknownID) {
		t.Fatalf("Remove on a drained shard: %v, want ErrUnknownID", err)
	}
	empty := make([][]retrieve.ColdSeries, 3)
	restored, err := restoreShardedIndex(si.family, DefaultSketchWidth, empty, make([][]uint64, 3), si.nextSeq.Load())
	if err != nil {
		t.Fatalf("restoring over empty shards: %v", err)
	}
	if err := restored.Add(data[0]); err != nil || restored.Len() != 1 {
		t.Fatalf("Add into a restored empty index: %v; holds %d", err, restored.Len())
	}
	if seq, _ := seqOf(restored, data[0].ID); seq != si.nextSeq.Load() {
		t.Fatalf("Add into a restored empty index took seq %d, want %d", seq, si.nextSeq.Load())
	}
	q := Series{Values: data[0].Values}
	if hits := mustSearchK(t, si, q, 3); len(hits) != 0 {
		t.Fatalf("empty index answered %v", hits)
	}
	for i, s := range data {
		if err := si.Add(s); err != nil {
			t.Fatalf("refill Add(%q): %v", s.ID, err)
		}
		if seq, _ := seqOf(si, s.ID); seq != uint64(len(data)+i) {
			t.Fatalf("refill Add(%q) took seq %d", s.ID, seq)
		}
	}
	requireSameHits(t, "refilled", mustSearchK(t, newShardTestIndex(t, data, 3), q, 5), mustSearchK(t, si, q, 5))
}

// TestShardedMergeTieBreakBySequence: equal distances on different shards
// merge in insertion order, whatever order the series were routed or the
// shard searches finished in.
func TestShardedMergeTieBreakBySequence(t *testing.T) {
	vals := shardTestData(1, 7)[0].Values
	const copies = 9
	si, err := NewShardedIndex(nil, 4, shardedTestOpts)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	shardsHit := make(map[int]bool)
	// Insert in an order unrelated to the IDs' hash order.
	for _, i := range rand.New(rand.NewSource(8)).Perm(copies) {
		id := fmt.Sprintf("twin-%d", i)
		if err := si.Add(Series{ID: id, Values: vals}); err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
		shardsHit[route(id, 4)] = true
	}
	if len(shardsHit) < 2 {
		t.Fatalf("twins all routed to one shard: %v", shardsHit)
	}
	for _, k := range []int{copies, 4} {
		hits := mustSearchK(t, si, Series{Values: vals}, k)
		if len(hits) != k {
			t.Fatalf("k=%d: %d hits", k, len(hits))
		}
		for i, h := range hits {
			if h.Distance != 0 || h.ID != want[i] {
				t.Fatalf("k=%d rank %d: %+v, want %q at distance 0", k, i, h, want[i])
			}
		}
	}
}

// TestShardedConcurrentChurn runs Add, Remove and Search against each
// other (meaningful under -race): searches never fail or see a
// half-published shard, and the index ends holding exactly the series
// never removed, with every sequence handed out once.
func TestShardedConcurrentChurn(t *testing.T) {
	base := shardTestData(24, 9)
	churn := shardTestData(48, 10)
	for i := range churn {
		churn[i].ID = fmt.Sprintf("churn-%03d", i)
	}
	si := newShardTestIndex(t, base, 4)
	var wg sync.WaitGroup
	const writers = 4
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(churn); i += writers {
				if err := si.Add(churn[i]); err != nil {
					t.Errorf("Add(%q): %v", churn[i].ID, err)
				}
				if i%2 == 0 {
					if err := si.Remove(churn[i].ID); err != nil {
						t.Errorf("Remove(%q): %v", churn[i].ID, err)
					}
				}
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				q := Series{Values: base[(r+i)%len(base)].Values}
				hits, _, err := si.Search(context.Background(), q, WithK(3))
				if err != nil || len(hits) != 3 || hits[0].Distance != 0 {
					t.Errorf("search during churn: %v, %v", hits, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if want := len(base) + len(churn)/2; si.Len() != want {
		t.Fatalf("index holds %d series after churn, want %d", si.Len(), want)
	}
	if next := si.nextSeq.Load(); next != uint64(len(base)+len(churn)) {
		t.Fatalf("next seq %d after %d Adds", next, len(base)+len(churn))
	}
}
