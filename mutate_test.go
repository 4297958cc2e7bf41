package sdtw

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// mutableConfigs are the backend constructors the mutability properties
// run against.
func mutableConfigs(t *testing.T) map[string]func([]Series) (*Index, error) {
	t.Helper()
	return map[string]func([]Series) (*Index, error){
		"engine": func(d []Series) (*Index, error) {
			return NewIndex(d, Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10})
		},
		"windowed": func(d []Series) (*Index, error) {
			return NewWindowedIndex(d, 10)
		},
	}
}

// TestIndexAddMatchesRebuild is the incremental-maintenance property: an
// index grown series by series answers bit-identically to one built over
// the final collection in one shot — features, envelopes and candidate
// ordering all maintained incrementally.
func TestIndexAddMatchesRebuild(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 71, SeriesPerClass: 4})
	ctx := context.Background()
	for name, build := range mutableConfigs(t) {
		grown, err := build(d.Series[:4])
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range d.Series[4:] {
			if err := grown.Add(s); err != nil {
				t.Fatalf("%s: Add(%s): %v", name, s.ID, err)
			}
		}
		full, err := build(d.Series)
		if err != nil {
			t.Fatal(err)
		}
		if grown.Len() != full.Len() {
			t.Fatalf("%s: grown %d series, rebuilt %d", name, grown.Len(), full.Len())
		}
		for _, q := range []Series{d.Series[0], d.Series[d.Len()-1]} {
			got, _, err := grown.Search(ctx, q, WithK(5))
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := full.Search(ctx, q, WithK(5))
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: rank %d: grown %+v vs rebuilt %+v", name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestIndexRemoveMatchesRebuild: removing series leaves an index that
// answers bit-identically to one built without them, with positions
// renumbered.
func TestIndexRemoveMatchesRebuild(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 72, SeriesPerClass: 4})
	ctx := context.Background()
	for name, build := range mutableConfigs(t) {
		shrunk, err := build(d.Series)
		if err != nil {
			t.Fatal(err)
		}
		removed := map[string]bool{d.Series[1].ID: true, d.Series[6].ID: true}
		for id := range removed {
			if err := shrunk.Remove(id); err != nil {
				t.Fatalf("%s: Remove(%s): %v", name, id, err)
			}
		}
		var rest []Series
		for _, s := range d.Series {
			if !removed[s.ID] {
				rest = append(rest, s)
			}
		}
		rebuilt, err := build(rest)
		if err != nil {
			t.Fatal(err)
		}
		if shrunk.Len() != rebuilt.Len() {
			t.Fatalf("%s: shrunk %d series, rebuilt %d", name, shrunk.Len(), rebuilt.Len())
		}
		for _, q := range []Series{rest[0], rest[len(rest)-1]} {
			got, _, err := shrunk.Search(ctx, q, WithK(4))
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := rebuilt.Search(ctx, q, WithK(4))
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: rank %d: shrunk %+v vs rebuilt %+v", name, i, got[i], want[i])
				}
			}
		}
		// Removed series are gone from the candidate set entirely.
		nbrs, stats, err := shrunk.Search(ctx, rest[0], WithK(shrunk.Len()))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Candidates != shrunk.Len()-1 {
			t.Fatalf("%s: %d candidates, want %d", name, stats.Candidates, shrunk.Len()-1)
		}
		for _, nb := range nbrs {
			if removed[shrunk.Series(nb.Pos).ID] {
				t.Fatalf("%s: removed series returned: %+v", name, nb)
			}
		}
	}
}

// TestIndexAddEvictsQueryCachedFeatures is the cache-poisoning
// regression from when features lived in an ID-keyed, read-through cache
// that search queries populated too. Adding a series whose ID was
// previously seen as a *query* must extract features from the new
// series' values, not adopt the query's — otherwise the index
// permanently serves another series' features under that ID.
func TestIndexAddEvictsQueryCachedFeatures(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 77, SeriesPerClass: 3})
	ix, err := NewIndex(d.Series[:d.Len()-2], DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// A query under the ID "q" planted its features in that cache.
	poison := d.Series[d.Len()-2]
	poison.ID = "q"
	if _, _, err := ix.Search(ctx, poison, WithK(2)); err != nil {
		t.Fatal(err)
	}
	// A different series is then added under the same ID.
	fresh := d.Series[d.Len()-1]
	fresh.ID = "q"
	if err := ix.Add(fresh); err != nil {
		t.Fatal(err)
	}
	// The mutated index must answer exactly like one built from scratch
	// over the same collection.
	rebuilt, err := NewIndex(append(append([]Series{}, d.Series[:d.Len()-2]...), fresh), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	probe := fresh
	probe.ID = "probe"
	got, _, err := ix.Search(ctx, probe, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := rebuilt.Search(ctx, probe, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d: mutated index %+v, rebuilt %+v (stale query features adopted?)", i, got[i], want[i])
		}
	}
}

func TestIndexMutationValidation(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 73, SeriesPerClass: 2})
	ix, err := NewIndex(d.Series, Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(NewSeries("", 0, nil)); !IsErr(err, ErrEmptySeries) {
		t.Fatalf("empty Add: got %v, want ErrEmptySeries", err)
	}
	if err := ix.Add(d.Series[0]); !IsErr(err, ErrDuplicateID) {
		t.Fatalf("duplicate Add: got %v, want ErrDuplicateID", err)
	}
	if err := ix.Remove("no-such-id"); !IsErr(err, ErrUnknownID) {
		t.Fatalf("unknown Remove: got %v, want ErrUnknownID", err)
	}
	if err := ix.Remove(""); !IsErr(err, ErrNoID) {
		t.Fatalf("empty-ID Remove: got %v, want ErrNoID", err)
	}
	// The windowed backend additionally rejects wrong-length additions.
	wix, err := NewWindowedIndex(d.Series, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := wix.Add(NewSeries("short", 0, make([]float64, 3))); !IsErr(err, ErrLengthMismatch) {
		t.Fatalf("wrong-length Add: got %v, want ErrLengthMismatch", err)
	}
	// An index never becomes empty.
	two := []Series{d.Series[0], d.Series[1]}
	tiny, err := NewWindowedIndex(two, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tiny.Remove(two[0].ID); err != nil {
		t.Fatal(err)
	}
	if err := tiny.Remove(two[1].ID); !IsErr(err, ErrEmptyCollection) {
		t.Fatalf("removing the last series: got %v, want ErrEmptyCollection", err)
	}
}

// TestRemoveEmptyIDIsErrNoID: on every kind of index — flat or sharded,
// in RAM or store-backed — Remove("") wraps ErrNoID and leaves the
// collection and its answers as they were.
func TestRemoveEmptyIDIsErrNoID(t *testing.T) {
	d := GunDataset(DatasetConfig{Seed: 3, SeriesPerClass: 3})
	opts := Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10}
	type index interface {
		Remove(id string) error
		Len() int
		Search(ctx context.Context, q Series, opts ...SearchOption) ([]Neighbor, SearchStats, error)
	}
	saved := func(t *testing.T, save func(dir string) error) string {
		dir := t.TempDir()
		if err := save(dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	kinds := map[string]func(t *testing.T) (index, error){
		"flat": func(t *testing.T) (index, error) { return NewIndex(d.Series, opts) },
		"flat/store": func(t *testing.T) (index, error) {
			ix, err := NewIndex(d.Series, opts)
			if err != nil {
				return nil, err
			}
			cold, err := OpenIndex(saved(t, ix.SaveStore), opts)
			if err == nil {
				t.Cleanup(func() { cold.CloseStore() })
			}
			return cold, err
		},
		"sharded": func(t *testing.T) (index, error) { return NewShardedIndex(d.Series, 3, opts) },
		"sharded/store": func(t *testing.T) (index, error) {
			si, err := NewShardedIndex(d.Series, 3, opts)
			if err != nil {
				return nil, err
			}
			cold, err := OpenShardedIndex(saved(t, si.SaveStore), opts)
			if err == nil {
				t.Cleanup(func() { cold.CloseStore() })
			}
			return cold, err
		},
	}
	q := d.Series[1]
	for name, build := range kinds {
		t.Run(name, func(t *testing.T) {
			ix, err := build(t)
			if err != nil {
				t.Fatal(err)
			}
			before, _, err := ix.Search(context.Background(), q, WithK(5))
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Remove(""); !IsErr(err, ErrNoID) {
				t.Fatalf("Remove(\"\"): %v, want ErrNoID", err)
			}
			if ix.Len() != d.Len() {
				t.Fatalf("%d series after a refused Remove, want %d", ix.Len(), d.Len())
			}
			after, _, err := ix.Search(context.Background(), q, WithK(5))
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(after) != fmt.Sprint(before) {
				t.Fatalf("answers moved after a refused Remove: %v, were %v", after, before)
			}
		})
	}
}

// TestIndexConcurrentMutation hammers one index with concurrent searches,
// adds and removes (run under -race by the CI race lane): every search
// must return coherent results against whichever collection state it
// observed, and the index must stay internally consistent.
func TestIndexConcurrentMutation(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 74, SeriesPerClass: 6})
	base := d.Series[:12]
	extra := d.Series[12:]
	ix, err := NewIndex(base, Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	// Searchers.
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for r := 0; r < 8; r++ {
				q := base[rng.Intn(len(base))]
				nbrs, _, err := ix.Search(ctx, q, WithK(3))
				if err != nil {
					errs <- err
					return
				}
				for i := 1; i < len(nbrs); i++ {
					if nbrs[i].Distance < nbrs[i-1].Distance {
						errs <- fmt.Errorf("unsorted neighbours under mutation: %+v", nbrs)
						return
					}
				}
				// Labels resolves neighbour labels under the search's
				// read lock, so it must never panic or mislabel while
				// Remove renumbers positions.
				if _, err := ix.Labels(ctx, q, WithK(3)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// Mutator: add every extra series, then remove them again.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, s := range extra {
			if err := ix.Add(s); err != nil {
				errs <- err
				return
			}
		}
		for _, s := range extra {
			if err := ix.Remove(s.ID); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ix.Len() != len(base) {
		t.Fatalf("collection ended at %d series, want %d", ix.Len(), len(base))
	}
}
