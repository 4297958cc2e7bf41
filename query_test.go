package sdtw

import (
	"context"
	"testing"
)

// queryFixture is a default-options (ac,aw) collection with two held-out
// series to query with: members of the same generator, never indexed.
func queryFixture(t *testing.T) (data []Series, q1, q2 []float64) {
	t.Helper()
	d := GunDataset(DatasetConfig{Seed: 21, SeriesPerClass: 22})
	n := len(d.Series) - 2
	return d.Series[:n], d.Series[n].Values, d.Series[n+1].Values
}

// cachedFeatureSets sums the engines' collection-cache sizes.
func cachedFeatureSets(engines ...*Engine) int {
	n := 0
	for _, e := range engines {
		n += e.inner.CacheSize()
	}
	return n
}

// extractions sums the engines' feature-extraction counts.
func extractions(engines ...*Engine) int64 {
	var n int64
	for _, e := range engines {
		n += e.inner.Extractions()
	}
	return n
}

// TestQueryIDNeverEntersCollectionCache: a query is not part of the
// collection. Searching under an ID must not add a cache entry (unbounded
// growth under a service), and a later query reusing that ID with other
// values must be answered from its own features — each answer equals a
// fresh index's bit for bit.
func TestQueryIDNeverEntersCollectionCache(t *testing.T) {
	data, v1, v2 := queryFixture(t)
	ctx := context.Background()
	build := func() (*Index, *ShardedIndex) {
		ix, err := NewIndex(data, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		si, err := NewShardedIndex(data, 4, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return ix, si
	}
	ix, si := build()
	flatCached, shardCached := cachedFeatureSets(ix.engine), cachedFeatureSets(si.engines...)
	for _, vals := range [][]float64{v1, v2} {
		q := NewSeries("same-id", 0, vals)
		freshIx, freshSi := build()

		want, _, err := freshIx.Search(ctx, q, WithK(5), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := ix.Search(ctx, q, WithK(5), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		requireSameHits(t, "flat, reused query ID", flatHits(freshIx, want), flatHits(ix, got))

		wantHits, _, err := freshSi.Search(ctx, q, WithK(5))
		if err != nil {
			t.Fatal(err)
		}
		gotHits, _, err := si.Search(ctx, q, WithK(5))
		if err != nil {
			t.Fatal(err)
		}
		requireSameHits(t, "4 shards, reused query ID", wantHits, gotHits)
		requireSameHits(t, "4 shards vs flat", flatHits(freshIx, want), gotHits)
	}
	if got := cachedFeatureSets(ix.engine); got != flatCached {
		t.Fatalf("flat index caches %d feature sets after searching, %d before", got, flatCached)
	}
	if got := cachedFeatureSets(si.engines...); got != shardCached {
		t.Fatalf("sharded index caches %d feature sets after searching, %d before", got, shardCached)
	}
}

// TestQueryExtractsOncePerSearch: a search prepares its query once — not
// once per candidate when the query has no ID to cache under, and not
// once per shard — and the ID changes nothing about the answer.
func TestQueryExtractsOncePerSearch(t *testing.T) {
	data, vals, _ := queryFixture(t)
	ctx := context.Background()
	ix, err := NewIndex(data, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	si, err := NewShardedIndex(data, 4, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	named, anonymous := NewSeries("held-out", 0, vals), NewSeries("", 0, vals)

	type answer struct {
		hits  []Hit
		stats SearchStats
	}
	flat := func(q Series) answer {
		before := extractions(ix.engine)
		nbrs, stats, err := ix.Search(ctx, q, WithK(5), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		if n := extractions(ix.engine) - before; n != 1 {
			t.Fatalf("flat search of %q ran %d feature extractions, want 1", q.ID, n)
		}
		return answer{flatHits(ix, nbrs), stats}
	}
	sharded := func(q Series) answer {
		before := extractions(si.engines...)
		hits, stats, err := si.Search(ctx, q, WithK(5))
		if err != nil {
			t.Fatal(err)
		}
		if n := extractions(si.engines...) - before; n != 1 {
			t.Fatalf("4-shard search of %q ran %d feature extractions, want 1", q.ID, n)
		}
		return answer{hits, stats}
	}

	a, b := flat(named), flat(anonymous)
	requireSameHits(t, "flat, ID-less query", a.hits, b.hits)
	if !sameStageCounts(a.stats, b.stats) {
		t.Fatalf("flat stage counts differ:\n   named %v\nID-less %v", a.stats, b.stats)
	}
	if a.stats.Evaluated == 0 || b.stats.ExtractTime <= 0 {
		t.Fatalf("nothing evaluated or no extraction accounted: %v (extract %v)", a.stats, b.stats.ExtractTime)
	}
	sa, sb := sharded(named), sharded(anonymous)
	requireSameHits(t, "4 shards, ID-less query", sa.hits, sb.hits)
	requireSameHits(t, "4 shards vs flat", a.hits, sb.hits)
	// Shards race on the shared threshold, so only the counts fixed
	// before the fan-out repeat exactly.
	if sa.stats.Candidates != sb.stats.Candidates || sa.stats.GridCells != sb.stats.GridCells ||
		sa.stats.Candidates != a.stats.Candidates {
		t.Fatalf("4-shard candidate counts differ:\n   named %v\nID-less %v\n   flat %v", sa.stats, sb.stats, a.stats)
	}

	// A member query reuses its cached features: no extraction at all.
	before := extractions(ix.engine) + extractions(si.engines...)
	if _, _, err := ix.Search(ctx, data[3], WithK(5)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := si.Search(ctx, data[3], WithK(5)); err != nil {
		t.Fatal(err)
	}
	if n := extractions(ix.engine) + extractions(si.engines...) - before; n != 0 {
		t.Fatalf("member queries ran %d feature extractions, want 0 (read-only cache hits)", n)
	}
}

// sameStageCounts compares every deterministic counter of two searches.
func sameStageCounts(a, b SearchStats) bool {
	return a.Candidates == b.Candidates && a.PrunedSketch == b.PrunedSketch &&
		a.PrunedKim == b.PrunedKim && a.PrunedKeogh == b.PrunedKeogh &&
		a.Evaluated == b.Evaluated && a.AbandonedDTW == b.AbandonedDTW &&
		a.CellsSaved == b.CellsSaved && a.Cells == b.Cells && a.GridCells == b.GridCells
}

// TestNoAlignmentIndexExtractsNothing: the full grid and the fixed-core,
// fixed-width band never read a feature, so an index over them must not
// pay §3.4's extraction at admission — flat, sharded, or on a later Add —
// while (ac,aw) still pays it once per series.
func TestNoAlignmentIndexExtractsNothing(t *testing.T) {
	d := GunDataset(DatasetConfig{Seed: 23, SeriesPerClass: 6})
	data, extra := d.Series[:10], d.Series[10]
	for _, tc := range []struct {
		opts Options
		per  int64 // extractions per admitted series
	}{
		{Options{Strategy: FullGrid}, 0},
		{Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10}, 0},
		{DefaultOptions(), 1},
	} {
		ix, err := NewIndex(data, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		si, err := NewShardedIndex(data, 3, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		check := func(when string, admitted int64) {
			t.Helper()
			want := tc.per * admitted
			if got := extractions(ix.engine); got != want {
				t.Errorf("%v flat, %s: %d extractions, want %d", tc.opts.Strategy, when, got, want)
			}
			if got := int64(cachedFeatureSets(ix.engine)); got != want {
				t.Errorf("%v flat, %s: %d cached feature sets, want %d", tc.opts.Strategy, when, got, want)
			}
			if got := extractions(si.engines...); got != want {
				t.Errorf("%v sharded, %s: %d extractions, want %d", tc.opts.Strategy, when, got, want)
			}
			if got := int64(cachedFeatureSets(si.engines...)); got != want {
				t.Errorf("%v sharded, %s: %d cached feature sets, want %d", tc.opts.Strategy, when, got, want)
			}
		}
		check("built", 10)
		if err := ix.Add(extra); err != nil {
			t.Fatal(err)
		}
		if err := si.Add(extra); err != nil {
			t.Fatal(err)
		}
		check("after Add", 11)
	}
}
