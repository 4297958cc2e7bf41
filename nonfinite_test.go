package sdtw

import (
	"context"
	"math"
	"path/filepath"
	"testing"
)

// withValue returns a copy of s whose value at position i is v.
func withValue(s Series, i int, v float64) Series {
	out := s.Clone()
	out.Values[i] = v
	return out
}

// nonFiniteIndexes builds the four in-RAM index kinds — flat and sharded,
// engine and windowed — over the same equal-length collection.
func nonFiniteIndexes(t *testing.T) (map[string]*Index, map[string]*ShardedIndex, *Dataset) {
	t.Helper()
	d := TraceDataset(DatasetConfig{Seed: 13, SeriesPerClass: 4})
	flat, sharded := map[string]*Index{}, map[string]*ShardedIndex{}
	opts := Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10}
	var err error
	if flat["engine"], err = NewIndex(d.Series, opts); err != nil {
		t.Fatal(err)
	}
	if flat["windowed"], err = NewWindowedIndex(d.Series, 12); err != nil {
		t.Fatal(err)
	}
	if sharded["engine"], err = NewShardedIndex(d.Series, 3, opts); err != nil {
		t.Fatal(err)
	}
	if sharded["windowed"], err = NewShardedWindowedIndex(d.Series, 3, 12); err != nil {
		t.Fatal(err)
	}
	return flat, sharded, d
}

// nonFiniteValues are the values every entry point must refuse.
var nonFiniteValues = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

// TestNonFiniteQueryRefused: a query holding a NaN or ±Inf value — at the
// first position or inside — is refused with ErrNonFinite by every search
// surface, flat and sharded, instead of answering neighbours at distance
// NaN.
func TestNonFiniteQueryRefused(t *testing.T) {
	flat, sharded, d := nonFiniteIndexes(t)
	ctx := context.Background()
	for _, v := range nonFiniteValues {
		for _, pos := range []int{0, 10, 63} {
			q := withValue(d.Series[0], pos, v)
			q.ID = "query"
			for name, ix := range flat {
				if nbrs, _, err := ix.Search(ctx, q, WithK(3)); !IsErr(err, ErrNonFinite) || nbrs != nil {
					t.Fatalf("flat %s: %v at %d: Search = %v, %v; want ErrNonFinite", name, v, pos, nbrs, err)
				}
				if _, _, err := ix.SearchBatch(ctx, []Series{d.Series[1], q}, WithK(3)); !IsErr(err, ErrNonFinite) {
					t.Fatalf("flat %s: %v at %d: SearchBatch = %v; want ErrNonFinite", name, v, pos, err)
				}
			}
			for name, si := range sharded {
				if hits, _, err := si.Search(ctx, q, WithK(3)); !IsErr(err, ErrNonFinite) || hits != nil {
					t.Fatalf("sharded %s: %v at %d: Search = %v, %v; want ErrNonFinite", name, v, pos, hits, err)
				}
			}
		}
	}
}

// TestNonFiniteSeriesRefused: a collection series holding a NaN or ±Inf
// value is refused with ErrNonFinite by every constructor and every Add,
// flat and sharded, in RAM and store-backed, and a refused Add leaves the
// collection as it was.
func TestNonFiniteSeriesRefused(t *testing.T) {
	flat, sharded, d := nonFiniteIndexes(t)
	opts := Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10}
	for _, v := range nonFiniteValues {
		data := append([]Series(nil), d.Series...)
		data[5] = withValue(data[5], 20, v)
		if _, err := NewIndex(data, opts); !IsErr(err, ErrNonFinite) {
			t.Fatalf("NewIndex with %v: %v, want ErrNonFinite", v, err)
		}
		if _, err := NewWindowedIndex(data, 12); !IsErr(err, ErrNonFinite) {
			t.Fatalf("NewWindowedIndex with %v: %v, want ErrNonFinite", v, err)
		}
		if _, err := NewShardedIndex(data, 3, opts); !IsErr(err, ErrNonFinite) {
			t.Fatalf("NewShardedIndex with %v: %v, want ErrNonFinite", v, err)
		}
		if _, err := NewShardedWindowedIndex(data, 3, 12); !IsErr(err, ErrNonFinite) {
			t.Fatalf("NewShardedWindowedIndex with %v: %v, want ErrNonFinite", v, err)
		}

		bad := withValue(d.Series[0], 0, v)
		bad.ID = "bad"
		for name, ix := range flat {
			before := ix.Len()
			if err := ix.Add(bad); !IsErr(err, ErrNonFinite) || ix.Len() != before {
				t.Fatalf("flat %s: Add with %v: %v (len %d → %d), want ErrNonFinite", name, v, err, before, ix.Len())
			}
		}
		for name, si := range sharded {
			before := si.Len()
			if err := si.Add(bad); !IsErr(err, ErrNonFinite) || si.Len() != before {
				t.Fatalf("sharded %s: Add with %v: %v (len %d → %d), want ErrNonFinite", name, v, err, before, si.Len())
			}
		}
	}

	// Store-backed: the series is refused in RAM before anything reaches
	// the store, so a reopen holds the same collection.
	dir := t.TempDir()
	flatDir, shardedDir := filepath.Join(dir, "flat"), filepath.Join(dir, "sharded")
	if err := flat["windowed"].SaveStore(flatDir); err != nil {
		t.Fatal(err)
	}
	if err := sharded["windowed"].SaveStore(shardedDir); err != nil {
		t.Fatal(err)
	}
	bad := withValue(d.Series[0], 63, math.NaN())
	bad.ID = "bad"
	ix, err := OpenWindowedIndex(flatDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(bad); !IsErr(err, ErrNonFinite) || ix.Len() != d.Len() {
		t.Fatalf("store-backed flat Add: %v (len %d), want ErrNonFinite", err, ix.Len())
	}
	if err := ix.CloseStore(); err != nil {
		t.Fatal(err)
	}
	si, err := OpenShardedWindowedIndex(shardedDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := si.Add(bad); !IsErr(err, ErrNonFinite) || si.Len() != d.Len() {
		t.Fatalf("store-backed sharded Add: %v (len %d), want ErrNonFinite", err, si.Len())
	}
	if err := si.CloseStore(); err != nil {
		t.Fatal(err)
	}
	if ix, err = OpenWindowedIndex(flatDir); err != nil || ix.Len() != d.Len() {
		t.Fatalf("reopened store holds %d series (%v), want %d", ix.Len(), err, d.Len())
	}
	if err := ix.CloseStore(); err != nil {
		t.Fatal(err)
	}
}
