package sdtw

import (
	"context"
	"fmt"
	"sync"
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

// extractions is the engine's feature-extraction count.
func extractions(e *Engine) int64 { return e.inner.Extractions() }

// TestQueryIDNeverEntersCollectionCache: a query is not part of the
// collection. A later query reusing an ID with other values must be
// answered from its own features — each answer equals a fresh index's
// bit for bit.
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
		before := extractions(si.engine)
		hits, stats, err := si.Search(ctx, q, WithK(5))
		if err != nil {
			t.Fatal(err)
		}
		if n := extractions(si.engine) - before; n != 1 {
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

	// A member query reuses the features the index holds: no extraction
	// at all.
	before := extractions(ix.engine) + extractions(si.engine)
	if _, _, err := ix.Search(ctx, data[3], WithK(5)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := si.Search(ctx, data[3], WithK(5)); err != nil {
		t.Fatal(err)
	}
	if n := extractions(ix.engine) + extractions(si.engine) - before; n != 0 {
		t.Fatalf("member queries ran %d feature extractions, want 0 (the members' own features)", n)
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
			if got := extractions(si.engine); got != want {
				t.Errorf("%v sharded, %s: %d extractions, want %d", tc.opts.Strategy, when, got, want)
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

// TestQueryUnderMemberIDWithOtherValues: a query carrying a member's ID
// but other values is answered from its own features, not the member's.
// The member is excluded by ID, so the answer equals that of the same
// values under a fresh ID over the collection without the member, bit for
// bit — flat and sharded.
func TestQueryUnderMemberIDWithOtherValues(t *testing.T) {
	d := GunDataset(DatasetConfig{Seed: 21, SeriesPerClass: 22})
	n := len(d.Series) - 1
	data, held := d.Series[:n], d.Series[n].Values
	ctx := context.Background()
	ix, err := NewIndex(data, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	si, err := NewShardedIndex(data, 4, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewIndex(data[1:], DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	nbrs, _, err := ref.Search(ctx, NewSeries("fresh", 0, held), WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	want := flatHits(ref, nbrs)

	q := NewSeries(data[0].ID, 0, held)
	nbrs, _, err = ix.Search(ctx, q, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	requireSameHits(t, "flat, member ID with other values", want, flatHits(ix, nbrs))
	hits, _, err := si.Search(ctx, q, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	requireSameHits(t, "4 shards, member ID with other values", want, hits)
}

// TestRestoredFeaturesExtractOnce: a store holds no features, so a
// restored index extracts each series' on first touch — once, however
// many concurrent searches reach it and across the copy-on-write copies
// an Add and a Remove make. Every search evaluates every candidate, so
// apart from the query preparations and the one Add the engine extracts
// exactly Len() feature sets; and every answer equals a fresh index's,
// bit for bit.
func TestRestoredFeaturesExtractOnce(t *testing.T) {
	d := GunDataset(DatasetConfig{Seed: 29, SeriesPerClass: 8})
	n := len(d.Series) - 3
	data, extra := d.Series[:n], d.Series[n]
	removed := data[5].ID
	var after []Series
	for _, s := range data {
		if s.ID != removed {
			after = append(after, s)
		}
	}
	after = append(after, extra)
	// Two held-out queries prepare their own features; a member query
	// takes its member's.
	queries := []Series{data[2]}
	for _, s := range d.Series[n+1:] {
		queries = append(queries, NewSeries("query-"+s.ID, 0, s.Values))
	}
	const clients = 4
	ctx := context.Background()
	opts := DefaultOptions()

	type index interface {
		Search(ctx context.Context, query Series, opts ...SearchOption) ([]Neighbor, SearchStats, error)
		Add(s Series) error
		Remove(id string) error
		Len() int
		CloseStore() error
	}
	layouts := map[string]struct {
		export func(dir string) error
		open   func(dir string) (index, *Engine, error)
		hits   func(ix index, nbrs []Neighbor) []Hit
	}{
		"flat": {
			export: func(dir string) error {
				ix, err := NewIndex(data, opts)
				if err != nil {
					return err
				}
				return ix.SaveStore(dir)
			},
			open: func(dir string) (index, *Engine, error) {
				ix, err := OpenIndex(dir, opts)
				if err != nil {
					return nil, nil, err
				}
				return ix, ix.engine, nil
			},
			hits: func(ix index, nbrs []Neighbor) []Hit { return flatHits(ix.(*Index), nbrs) },
		},
		"sharded": {
			export: func(dir string) error {
				si, err := NewShardedIndex(data, 3, opts)
				if err != nil {
					return err
				}
				return si.SaveStore(dir)
			},
			open: func(dir string) (index, *Engine, error) {
				si, err := OpenShardedIndex(dir, opts)
				if err != nil {
					return nil, nil, err
				}
				return si, si.engine, nil
			},
			hits: func(_ index, nbrs []Neighbor) []Hit { return nbrs },
		},
	}
	for name, l := range layouts {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := l.export(dir); err != nil {
				t.Fatal(err)
			}
			ix, engine, err := l.open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.CloseStore()
			restored := int64(ix.Len())
			preparations := int64(0)
			// round searches every query from every client at once and
			// checks each answer against a fresh index over coll.
			round := func(label string, coll []Series) {
				t.Helper()
				ref, err := NewIndex(coll, opts)
				if err != nil {
					t.Fatal(err)
				}
				k := WithK(len(coll))
				want := make([][]Hit, len(queries))
				for i, q := range queries {
					nbrs, _, err := ref.Search(ctx, q, k)
					if err != nil {
						t.Fatal(err)
					}
					want[i] = flatHits(ref, nbrs)
				}
				got := make([][][]Hit, clients)
				errs := make([]error, clients)
				var wg sync.WaitGroup
				for c := range clients {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for _, q := range queries {
							nbrs, _, err := ix.Search(ctx, q, k)
							if err != nil {
								errs[c] = err
								return
							}
							got[c] = append(got[c], l.hits(ix, nbrs))
						}
					}()
				}
				wg.Wait()
				for c := range clients {
					if errs[c] != nil {
						t.Fatalf("%s, client %d: %v", label, c, errs[c])
					}
					for i := range queries {
						requireSameHits(t, fmt.Sprintf("%s, client %d, query %q", label, c, queries[i].ID), want[i], got[c][i])
					}
				}
				preparations += clients * int64(len(queries)-1)
			}
			round("restored", data)
			if err := ix.Add(extra); err != nil {
				t.Fatal(err)
			}
			if err := ix.Remove(removed); err != nil {
				t.Fatal(err)
			}
			round("after Add and Remove", after)
			if got := engine.inner.Extractions() - preparations - 1; got != restored {
				t.Fatalf("%d extractions of restored series, want %d: one per series", got, restored)
			}
		})
	}
}
