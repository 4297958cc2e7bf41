package sdtw

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"sdtw/internal/lower"
	"sdtw/internal/store"
	"sdtw/internal/vfs"
)

// storeAndFlat exports data into a segment store under t.TempDir, opens
// it, and returns the store-backed index beside the in-RAM index it
// must answer identically to.
func storeAndFlat(t *testing.T, backend string, data []Series, opts Options) (*Index, *Index, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	var flat, cold *Index
	var err error
	switch backend {
	case "engine":
		flat, err = NewIndex(data, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := flat.SaveStore(dir); err != nil {
			t.Fatal(err)
		}
		cold, err = OpenIndex(dir, opts)
	case "windowed":
		flat, err = NewWindowedIndex(data, 12)
		if err != nil {
			t.Fatal(err)
		}
		if err := flat.SaveStore(dir); err != nil {
			t.Fatal(err)
		}
		cold, err = OpenWindowedIndex(dir)
	default:
		t.Fatalf("unknown backend %q", backend)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cold.CloseStore() })
	return flat, cold, dir
}

func requireSameNeighbors(t *testing.T, label string, want, got []Neighbor) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d neighbours, want %d\n got: %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if want[i].Pos != got[i].Pos {
			t.Fatalf("%s: rank %d at position %d, want %d", label, i, got[i].Pos, want[i].Pos)
		}
		if math.Float64bits(want[i].Distance) != math.Float64bits(got[i].Distance) {
			t.Fatalf("%s: rank %d distance %v (bits %x), want %v (bits %x)", label, i,
				got[i].Distance, math.Float64bits(got[i].Distance),
				want[i].Distance, math.Float64bits(want[i].Distance))
		}
	}
}

// TestStoreBackedSearchExactness is the storage layer's headline
// property: a store-backed index — hot sketches and envelopes, cold raw
// values — answers bit-identically to the in-RAM index it was exported
// from, on both backends, across band strategies, k and threshold
// modes, and with the stage-0 sketch filter both on and off.
func TestStoreBackedSearchExactness(t *testing.T) {
	d := GunDataset(DatasetConfig{Seed: 71, SeriesPerClass: 8})
	engineOpts := []Options{
		{Strategy: AdaptiveCoreAdaptiveWidth},
		{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10},
		{Strategy: FullGrid},
		{Strategy: FixedCoreAdaptiveWidth},
		{Strategy: AdaptiveCoreFixedWidth},
		{Strategy: AdaptiveCoreAdaptiveWidthAvg},
	}
	ctx := context.Background()
	queries := []Series{d.Series[0], d.Series[7], d.Series[11]}
	modes := []struct {
		label string
		opts  []SearchOption
	}{
		{"k1", nil},
		{"k5", []SearchOption{WithK(5)}},
		{"threshold", []SearchOption{WithThreshold(4.0)}},
		{"k3+threshold", []SearchOption{WithK(3), WithThreshold(6.0)}},
		{"k5+nosketch", []SearchOption{WithK(5), WithoutSketch()}},
	}
	run := func(t *testing.T, flat, cold *Index) {
		for qi, q := range queries {
			for _, mode := range modes {
				want, _, err := flat.Search(ctx, q, mode.opts...)
				if err != nil {
					t.Fatal(err)
				}
				got, stats, err := cold.Search(ctx, q, mode.opts...)
				if err != nil {
					t.Fatal(err)
				}
				requireSameNeighbors(t, fmt.Sprintf("query %d %s", qi, mode.label), want, got)
				if strings.Contains(mode.label, "nosketch") && stats.PrunedSketch != 0 {
					t.Fatalf("query %d %s: sketch stage ran despite WithoutSketch: %+v", qi, mode.label, stats)
				}
			}
		}
	}
	for i, opts := range engineOpts {
		t.Run(fmt.Sprintf("engine-%d", i), func(t *testing.T) {
			flat, cold, _ := storeAndFlat(t, "engine", d.Series, opts)
			run(t, flat, cold)
		})
	}
	t.Run("windowed", func(t *testing.T) {
		flat, cold, _ := storeAndFlat(t, "windowed", d.Series, Options{})
		run(t, flat, cold)
	})
}

// TestStoreBackedSketchPrunes: the stage-0 filter actually fires on a
// store-backed index (equal-length collection, default width).
func TestStoreBackedSketchPrunes(t *testing.T) {
	d := GunDataset(DatasetConfig{Seed: 73, SeriesPerClass: 10})
	_, cold, _ := storeAndFlat(t, "engine", d.Series, Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10})
	total := 0
	for q := 0; q < 6; q++ {
		_, stats, err := cold.Search(context.Background(), d.Series[q], WithK(1))
		if err != nil {
			t.Fatal(err)
		}
		total += stats.PrunedSketch
	}
	if total == 0 {
		t.Fatal("stage-0 sketch filter never pruned a candidate on Gun")
	}
}

// TestStoreBackedMutationExactness: Add, Remove and Compact on a
// store-backed index keep it bit-identical to an in-RAM index over the
// same mutated collection — including after closing and reopening the
// store, which replays the mutations from segments and tombstones.
func TestStoreBackedMutationExactness(t *testing.T) {
	d := GunDataset(DatasetConfig{Seed: 79, SeriesPerClass: 8})
	for _, backend := range []string{"engine", "windowed"} {
		t.Run(backend, func(t *testing.T) {
			opts := Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10}
			seed := d.Series[:12]
			_, cold, dir := storeAndFlat(t, backend, seed, opts)

			// Mutate: drop two, add four of the held-out series.
			mutated := append([]Series(nil), seed...)
			for _, id := range []string{seed[3].ID, seed[9].ID} {
				if err := cold.Remove(id); err != nil {
					t.Fatal(err)
				}
				for i, s := range mutated {
					if s.ID == id {
						mutated = append(mutated[:i], mutated[i+1:]...)
						break
					}
				}
			}
			for _, s := range d.Series[12:16] {
				if err := cold.Add(s); err != nil {
					t.Fatal(err)
				}
				mutated = append(mutated, s)
			}

			var flat *Index
			var err error
			if backend == "engine" {
				flat, err = NewIndex(mutated, opts)
			} else {
				flat, err = NewWindowedIndex(mutated, 12)
			}
			if err != nil {
				t.Fatal(err)
			}

			ctx := context.Background()
			check := func(label string, ix *Index) {
				t.Helper()
				for q := 0; q < 4; q++ {
					want, _, err := flat.Search(ctx, d.Series[q], WithK(5))
					if err != nil {
						t.Fatal(err)
					}
					got, _, err := ix.Search(ctx, d.Series[q], WithK(5))
					if err != nil {
						t.Fatal(err)
					}
					requireSameNeighbors(t, fmt.Sprintf("%s query %d", label, q), want, got)
				}
			}
			check("mutated", cold)

			// Compaction drops the tombstoned records but changes no
			// answer.
			if err := cold.Compact(); err != nil {
				t.Fatal(err)
			}
			st, err := cold.StoreStats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Tombstones != 0 {
				t.Fatalf("tombstones survived compaction: %+v", st)
			}
			if st.LiveRecords != len(mutated) {
				t.Fatalf("store has %d live records, want %d", st.LiveRecords, len(mutated))
			}
			check("compacted", cold)

			// Reopen from disk: the replayed store answers identically.
			if err := cold.CloseStore(); err != nil {
				t.Fatal(err)
			}
			var back *Index
			if backend == "engine" {
				back, err = OpenIndex(dir, opts)
			} else {
				back, err = OpenWindowedIndex(dir)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer back.CloseStore()
			if back.Len() != len(mutated) {
				t.Fatalf("reopened %d series, want %d", back.Len(), len(mutated))
			}
			check("reopened", back)
		})
	}
}

// TestShardedStoreBackedExactness: a sharded store root serves
// bit-identically to a flat in-RAM index over the same collection,
// through mutations, compaction and reopen.
func TestShardedStoreBackedExactness(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 83, SeriesPerClass: 5})
	for _, backend := range []string{"engine", "windowed"} {
		t.Run(backend, func(t *testing.T) {
			seed := d.Series[:16]
			sharded, _ := shardedAndFlat(t, backend, seed, []int{3})
			dir := filepath.Join(t.TempDir(), "sharded")
			if err := sharded[3].SaveStore(dir); err != nil {
				t.Fatal(err)
			}
			cold := openSharded(t, backend, dir)
			defer cold.CloseStore()
			if !cold.StoreBacked() {
				t.Fatal("opened sharded index does not report store backing")
			}

			mutated := append([]Series(nil), seed...)
			for _, id := range []string{seed[2].ID, seed[8].ID, seed[13].ID} {
				if err := cold.Remove(id); err != nil {
					t.Fatal(err)
				}
				for i, s := range mutated {
					if s.ID == id {
						mutated = append(mutated[:i], mutated[i+1:]...)
						break
					}
				}
			}
			for _, s := range d.Series[16:19] {
				if err := cold.Add(s); err != nil {
					t.Fatal(err)
				}
				mutated = append(mutated, s)
			}

			flat := newFlat(t, backend, mutated)
			ctx := context.Background()
			check := func(label string, si *ShardedIndex) {
				t.Helper()
				for q := 0; q < 4; q++ {
					nbrs, _, err := flat.Search(ctx, d.Series[q], WithK(6))
					if err != nil {
						t.Fatal(err)
					}
					got, _, err := si.Search(ctx, d.Series[q], WithK(6))
					if err != nil {
						t.Fatal(err)
					}
					requireSameHits(t, fmt.Sprintf("%s query %d", label, q), flatHits(flat, nbrs), got)
				}
			}
			check("mutated", cold)
			if err := cold.Compact(); err != nil {
				t.Fatal(err)
			}
			check("compacted", cold)
			st, err := cold.StoreStats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Tombstones != 0 || st.LiveRecords != len(mutated) {
				t.Fatalf("unexpected post-compaction store stats: %+v", st)
			}

			if err := cold.CloseStore(); err != nil {
				t.Fatal(err)
			}
			back := openSharded(t, backend, dir)
			defer back.CloseStore()
			check("reopened", back)
		})
	}
}

// TestOpenIndexValidation: wrong options, wrong kind, corrupt input and
// re-export of a store-backed index all refuse with the right sentinels.
func TestOpenIndexValidation(t *testing.T) {
	d := GunDataset(DatasetConfig{Seed: 89, SeriesPerClass: 4})
	opts := Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10}
	_, cold, dir := storeAndFlat(t, "engine", d.Series, opts)

	if _, err := OpenIndex(dir, Options{Strategy: FixedCoreAdaptiveWidth}); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("mismatched options: %v, want ErrConfigMismatch", err)
	}
	if _, err := OpenWindowedIndex(dir); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("kind mismatch: %v, want ErrConfigMismatch", err)
	}
	if err := cold.SaveStore(filepath.Join(dir, "again")); !errors.Is(err, ErrStoreBacked) {
		t.Fatalf("SaveStore of a store-backed index: %v, want ErrStoreBacked", err)
	}
	if err := cold.Add(Series{Label: 1, Values: []float64{1, 2, 3}}); !errors.Is(err, ErrNoID) {
		t.Fatalf("store-backed Add without ID: %v, want ErrNoID", err)
	}

	flat, err := NewIndex(d.Series, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := flat.Compact(); !errors.Is(err, ErrNotStoreBacked) {
		t.Fatalf("Compact on in-RAM index: %v, want ErrNotStoreBacked", err)
	}
	if _, err := flat.StoreStats(); !errors.Is(err, ErrNotStoreBacked) {
		t.Fatalf("StoreStats on in-RAM index: %v, want ErrNotStoreBacked", err)
	}
	if err := flat.SaveStore(dir); !errors.Is(err, ErrStoreExists) {
		t.Fatalf("SaveStore into an existing store: %v, want ErrStoreExists", err)
	}

	// Every option that changes distances or cascade geometry refuses.
	for _, bad := range []Options{
		{Strategy: AdaptiveCoreAdaptiveWidth, Symmetric: true},
		{Strategy: AdaptiveCoreAdaptiveWidth, DescriptorBins: 8},
		{Strategy: FixedCoreFixedWidth, WidthFrac: 0.20},
	} {
		if _, err := OpenIndex(dir, bad); !errors.Is(err, ErrConfigMismatch) {
			t.Fatalf("options %+v: %v, want ErrConfigMismatch", bad, err)
		}
	}
	// A windowed store carries its own configuration — the radius comes
	// back — and refuses the engine constructor.
	wflat, wcold, wdir := storeAndFlat(t, "windowed", d.Series, Options{})
	if wcold.Radius() != wflat.Radius() {
		t.Fatalf("reopened radius %d, want %d", wcold.Radius(), wflat.Radius())
	}
	if _, err := OpenIndex(wdir, opts); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("OpenIndex on a windowed store: %v, want ErrConfigMismatch", err)
	}
	// Corrupt input: a directory that holds no store, and one whose
	// manifest is garbage, fail cleanly on both constructors.
	garbage := t.TempDir()
	for _, open := range []func() (*Index, error){
		func() (*Index, error) { return OpenIndex(garbage, opts) },
		func() (*Index, error) { return OpenWindowedIndex(garbage) },
	} {
		if _, err := open(); !errors.Is(err, ErrCorruptManifest) {
			t.Fatalf("open of an empty directory: %v, want ErrCorruptManifest", err)
		}
	}
	if err := os.WriteFile(filepath.Join(garbage, "MANIFEST.json"), []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenIndex(garbage, opts); !errors.Is(err, ErrCorruptManifest) {
		t.Fatalf("open over a garbage manifest: %v, want ErrCorruptManifest", err)
	}
}

// TestDrainedShardedExportReopens: a sharded index whose every series was
// removed still exports, and the export reopens and fills through Add —
// on the windowed backend too, whose length and radius must reach the
// manifest from the index's configuration, there being no series left to
// read a length off.
func TestDrainedShardedExportReopens(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 61, SeriesPerClass: 3})
	for _, backend := range []string{"engine", "windowed"} {
		sharded, flat := shardedAndFlat(t, backend, d.Series, []int{3})
		si := sharded[3]
		for _, s := range d.Series {
			if err := si.Remove(s.ID); err != nil {
				t.Fatal(err)
			}
		}
		dir := filepath.Join(t.TempDir(), "drained")
		if err := si.SaveStore(dir); err != nil {
			t.Fatalf("%s: SaveStore of a drained index: %v", backend, err)
		}
		back := openSharded(t, backend, dir)
		if back.Len() != 0 || back.Radius() != si.Radius() {
			t.Fatalf("%s: reopened %d series at radius %d, want 0 at %d", backend, back.Len(), back.Radius(), si.Radius())
		}
		for _, s := range d.Series {
			if err := back.Add(s); err != nil {
				t.Fatalf("%s: Add into the reopened drained index: %v", backend, err)
			}
		}
		requireShardedEqualsFlat(t, backend+"/refilled", back, flat, d.Series[:3])
		if err := back.CloseStore(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFlatIndexIsNeverEmpty: retrieve.Core holds any number of series,
// the flat Index at least one — all four of its constructors refuse an
// empty collection with ErrEmptyCollection (a drained one-shard root's
// shard directory is a well-formed store of no records).
func TestFlatIndexIsNeverEmpty(t *testing.T) {
	if _, err := NewIndex(nil, DefaultOptions()); !errors.Is(err, ErrEmptyCollection) {
		t.Fatalf("NewIndex over no series: %v, want ErrEmptyCollection", err)
	}
	if _, err := NewWindowedIndex(nil, 5); !errors.Is(err, ErrEmptyCollection) {
		t.Fatalf("NewWindowedIndex over no series: %v, want ErrEmptyCollection", err)
	}
	d := GunDataset(DatasetConfig{Seed: 67, SeriesPerClass: 1})
	for _, backend := range []string{"engine", "windowed"} {
		sharded, _ := shardedAndFlat(t, backend, d.Series, []int{1})
		for _, s := range d.Series {
			if err := sharded[1].Remove(s.ID); err != nil {
				t.Fatal(err)
			}
		}
		root := filepath.Join(t.TempDir(), "root")
		if err := sharded[1].SaveStore(root); err != nil {
			t.Fatal(err)
		}
		var err error
		if backend == "engine" {
			_, err = OpenIndex(filepath.Join(root, shardDirName(0)), shardedTestOpts)
		} else {
			_, err = OpenWindowedIndex(filepath.Join(root, shardDirName(0)))
		}
		if !errors.Is(err, ErrEmptyCollection) {
			t.Fatalf("%s: flat open of a store holding no records: %v, want ErrEmptyCollection", backend, err)
		}
	}
}

// TestOpenShardedAtomicFailure: opening a sharded store root where one
// shard is missing or corrupt must fail as a whole — never serve a
// cluster over a subset of its shards.
func TestOpenShardedAtomicFailure(t *testing.T) {
	d := GunDataset(DatasetConfig{Seed: 97, SeriesPerClass: 6})
	// Small segments so every shard holds sealed segments: corruption in
	// a sealed segment is never repaired silently (the active segment's
	// tail is, by design — torn-tail recovery).
	opts := Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10, StoreSegmentRecords: 2}
	si, err := NewShardedIndex(d.Series, 3, opts)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("missing-shard", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "s")
		if err := si.SaveStore(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.RemoveAll(filepath.Join(dir, shardDirName(2))); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenShardedIndex(dir, opts); !errors.Is(err, ErrCorruptManifest) {
			t.Fatalf("open with a missing shard: %v, want ErrCorruptManifest", err)
		}
	})
	t.Run("corrupt-shard", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "s")
		if err := si.SaveStore(dir); err != nil {
			t.Fatal(err)
		}
		// Flip one byte in shard 1's first sealed hot segment.
		matches, err := filepath.Glob(filepath.Join(dir, shardDirName(1), "seg-*.hot"))
		if err != nil || len(matches) == 0 {
			t.Fatalf("no hot segments found: %v", err)
		}
		data, err := os.ReadFile(matches[0])
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-5] ^= 0xff
		if err := os.WriteFile(matches[0], data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenShardedIndex(dir, opts); !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("open with a corrupt shard: %v, want ErrCorruptSegment", err)
		}
	})
}

// TestOpenShardedDegraded: under AllowQuarantine a corrupt sealed
// segment in one shard degrades the open — the damaged shard serves its
// surviving records, the other shards serve everything, and per-shard
// health reports exactly where the damage is — while a plain open of
// the now-quarantined root keeps refusing (the operator must keep
// opting into degraded serving).
func TestOpenShardedDegraded(t *testing.T) {
	d := GunDataset(DatasetConfig{Seed: 107, SeriesPerClass: 6})
	opts := Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10, StoreSegmentRecords: 2}
	si, err := NewShardedIndex(d.Series, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "s")
	if err := si.SaveStore(dir); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, shardDirName(1), "seg-*.hot"))
	if err != nil || len(matches) < 2 {
		t.Fatalf("want sealed segments in shard 1, got %v (%v)", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0xff
	if err := os.WriteFile(matches[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	deg, err := OpenShardedIndex(dir, opts, AllowQuarantine())
	if err != nil {
		t.Fatalf("degraded open: %v", err)
	}
	defer deg.CloseStore()
	stats, err := deg.StoreStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Health.Quarantined != 1 || stats.Health.QuarantinedRecords == 0 {
		t.Fatalf("aggregate health = %+v, want one quarantined segment with records", stats.Health)
	}
	if !stats.Health.Degraded() {
		t.Fatal("aggregate health not degraded")
	}
	if len(stats.ShardHealth) != 3 {
		t.Fatalf("ShardHealth has %d entries, want 3", len(stats.ShardHealth))
	}
	for i, h := range stats.ShardHealth {
		want := 0
		if i == 1 {
			want = 1
		}
		if h.Quarantined != want {
			t.Fatalf("shard %d health = %+v, want Quarantined %d", i, h, want)
		}
	}
	if got := stats.LiveRecords + stats.Health.QuarantinedRecords; got != len(d.Series) {
		t.Fatalf("live %d + quarantined %d = %d records, want %d",
			stats.LiveRecords, stats.Health.QuarantinedRecords, got, len(d.Series))
	}
	if q, err := filepath.Glob(filepath.Join(dir, shardDirName(1), "seg-*.quarantine")); err != nil || len(q) != 2 {
		t.Fatalf("quarantine files = %v (%v), want the segment's hot and val pair", q, err)
	}

	// Every surviving series is still retrievable as its own nearest
	// neighbour; the quarantined ones are gone from the result surface.
	live := make(map[string]bool)
	for _, st := range deg.stores {
		for _, rec := range st.Live() {
			live[rec.ID] = true
		}
	}
	if len(live) != stats.LiveRecords {
		t.Fatalf("stores serve %d series, stats say %d live", len(live), stats.LiveRecords)
	}
	ctx := context.Background()
	for _, s := range d.Series {
		if !live[s.ID] {
			continue
		}
		hits, _, err := deg.Search(ctx, Series{Values: s.Values}, WithK(1))
		if err != nil {
			t.Fatalf("search %q: %v", s.ID, err)
		}
		if len(hits) != 1 || hits[0].ID != s.ID {
			t.Fatalf("search %q: got %v, want itself", s.ID, hits)
		}
	}

	// The quarantine is sticky: a plain reopen refuses until the
	// operator resolves it.
	if _, err := OpenShardedIndex(dir, opts); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("plain reopen of a quarantined root: %v, want ErrQuarantined", err)
	}
}

// TestOpenShardedMixedConfig: a shard directory spliced in from a store
// written under different options must refuse with ErrConfigMismatch —
// per-shard fingerprints are checked against each other, not just
// shard 0's against the caller.
func TestOpenShardedMixedConfig(t *testing.T) {
	d := GunDataset(DatasetConfig{Seed: 101, SeriesPerClass: 6})
	optsA := Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10}
	optsB := Options{Strategy: FixedCoreAdaptiveWidth}
	siA, err := NewShardedIndex(d.Series, 3, optsA)
	if err != nil {
		t.Fatal(err)
	}
	siB, err := NewShardedIndex(d.Series, 3, optsB)
	if err != nil {
		t.Fatal(err)
	}
	dirA := filepath.Join(t.TempDir(), "a")
	dirB := filepath.Join(t.TempDir(), "b")
	if err := siA.SaveStore(dirA); err != nil {
		t.Fatal(err)
	}
	if err := siB.SaveStore(dirB); err != nil {
		t.Fatal(err)
	}
	// Splice shard 1 of B into A: shard 0 still matches the caller's
	// options, so only the cross-shard check can catch it.
	if err := os.RemoveAll(filepath.Join(dirA, shardDirName(1))); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dirB, shardDirName(1)), filepath.Join(dirA, shardDirName(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShardedIndex(dirA, optsA); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("open over mixed-config shards: %v, want ErrConfigMismatch", err)
	}

	// Cross-kind opens refuse in both directions, as does a sharded open
	// of an unsharded store (there is no shard-0000 under it).
	dirE := filepath.Join(t.TempDir(), "e")
	if err := siA.SaveStore(dirE); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShardedWindowedIndex(dirE); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("windowed open of an engine root: %v, want ErrConfigMismatch", err)
	}
	windowed, err := NewShardedWindowedIndex(d.Series, 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	dirW := filepath.Join(t.TempDir(), "w")
	if err := windowed.SaveStore(dirW); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShardedIndex(dirW, optsA); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("engine open of a windowed root: %v, want ErrConfigMismatch", err)
	}
	flat, err := NewIndex(d.Series, optsA)
	if err != nil {
		t.Fatal(err)
	}
	dirF := filepath.Join(t.TempDir(), "f")
	if err := flat.SaveStore(dirF); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShardedIndex(dirF, optsA); !errors.Is(err, ErrCorruptManifest) {
		t.Fatalf("sharded open of an unsharded store: %v, want ErrCorruptManifest", err)
	}
}

// TestEngineFingerprintGolden holds the fingerprint to the strings the
// release that still had a seventh strategy produced (slope=0 is that
// strategy's knob, unset): every store written then under a configuration
// still expressible must keep opening.
func TestEngineFingerprintGolden(t *testing.T) {
	const tail = "|bins=0|eps=0|oct=0|lev=0|amp=0|scale=0|dom=0|pd=false"
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{DefaultOptions(),
			"sdtw/v1|strategy=4|w=0|minw=0|maxw=0|nr=0|slope=0|sym=false" + tail},
		{Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10},
			"sdtw/v1|strategy=1|w=0.1|minw=0|maxw=0|nr=0|slope=0|sym=false" + tail},
		{Options{Strategy: AdaptiveCoreAdaptiveWidthAvg, Symmetric: true},
			"sdtw/v1|strategy=5|w=0|minw=0|maxw=0|nr=0|slope=0|sym=true" + tail},
	} {
		if got := engineFingerprint(tc.opts); got != tc.want {
			t.Errorf("fingerprint of %+v:\n got %s\nwant %s", tc.opts, got, tc.want)
		}
	}
}

// TestOpenRefusesRemovedStrategyStore: a store exported under the removed
// seventh strategy says strategy=6 in its manifest. No Options may open it —
// Options{Strategy: 6} reproduces the fingerprint, and must still be
// refused rather than serve that band's envelopes over another band.
func TestOpenRefusesRemovedStrategyStore(t *testing.T) {
	d := GunDataset(DatasetConfig{Seed: 107, SeriesPerClass: 3})
	fp := strings.Replace(engineFingerprint(Options{}), "strategy=0", "strategy=6", 1)
	envs := make([]lower.Envelope, len(d.Series))
	for i, s := range d.Series {
		envs[i] = lower.NewEnvelope(s.Values, s.Len()/3)
	}
	flat := filepath.Join(t.TempDir(), "flat")
	engine := backendFamily{kind: snapshotKindEngine}
	meta := exportMeta(engine, uint64(len(d.Series)))
	if err := new(storeSet).exportStores(flat, fp, DefaultSketchWidth, 0, []storeExport{{dir: flat, meta: meta, data: d.Series, envs: envs}}); err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(t.TempDir(), "root")
	meta = exportMeta(engine, uint64(len(d.Series)))
	meta[storeMetaShards], meta[storeMetaShard] = "1", "0"
	if err := new(storeSet).exportStores(root, fp, DefaultSketchWidth, 0,
		[]storeExport{{dir: filepath.Join(root, shardDirName(0)), meta: meta, data: d.Series, envs: envs}}); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{Strategy: 6}, {}, DefaultOptions()} {
		if _, err := OpenIndex(flat, opts); !errors.Is(err, ErrConfigMismatch) {
			t.Errorf("OpenIndex under %v: %v, want ErrConfigMismatch", opts.Strategy, err)
		}
		if _, err := OpenShardedIndex(root, opts); !errors.Is(err, ErrConfigMismatch) {
			t.Errorf("OpenShardedIndex under %v: %v, want ErrConfigMismatch", opts.Strategy, err)
		}
	}
}

// TestStoreExportFormat pins the on-disk contract of SaveStore: the
// exact manifest metadata key set (and values) of unsharded and sharded
// exports on both backends, and the shard directory names.
func TestStoreExportFormat(t *testing.T) {
	d := GunDataset(DatasetConfig{Seed: 109, SeriesPerClass: 5})
	opts := Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10}
	n := strconv.Itoa(len(d.Series))
	length := strconv.Itoa(d.Series[0].Len())
	requireMeta := func(t *testing.T, dir string, want map[string]string) {
		t.Helper()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if got := st.Meta(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: manifest meta = %v, want %v", dir, got, want)
		}
	}

	_, _, dir := storeAndFlat(t, "engine", d.Series, opts)
	requireMeta(t, dir, map[string]string{"kind": "engine", "next_seq": n})
	_, _, dir = storeAndFlat(t, "windowed", d.Series, opts)
	requireMeta(t, dir, map[string]string{"kind": "windowed", "next_seq": n, "length": length, "radius": "12"})

	for _, backend := range []string{"engine", "windowed"} {
		var si *ShardedIndex
		var err error
		want := map[string]string{"kind": backend, "next_seq": n, "shards": "3"}
		if backend == "engine" {
			si, err = NewShardedIndex(d.Series, 3, opts)
		} else {
			si, err = NewShardedWindowedIndex(d.Series, 3, 12)
			want["length"], want["radius"] = length, "12"
		}
		if err != nil {
			t.Fatal(err)
		}
		root := filepath.Join(t.TempDir(), "root")
		if err := si.SaveStore(root); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if !reflect.DeepEqual(names, []string{"shard-0000", "shard-0001", "shard-0002"}) {
			t.Fatalf("%s root holds %v", backend, names)
		}
		for i, name := range names {
			want["shard"] = strconv.Itoa(i)
			requireMeta(t, filepath.Join(root, name), want)
		}
	}
}

// faultFSFrom copies the store tree under root into a fault-injecting
// in-memory filesystem at the same paths.
func faultFSFrom(t *testing.T, root string) *vfs.FaultFS {
	t.Helper()
	fs := vfs.NewFaultFS(1)
	err := filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			return fs.MkdirAll(path)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return fs.WriteFile(path, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestStoreBackedRemoveFailureKeepsSeries: a Remove whose tombstone
// write fails must leave the series exactly where it was — searchable in
// RAM, live on disk — so a retry after the fault clears succeeds and
// sticks across a reopen. (Unpublishing before tombstoning lost the
// series from searches, answered the retry with ErrUnknownID, and
// resurrected it at the next open.)
func TestStoreBackedRemoveFailureKeepsSeries(t *testing.T) {
	d := GunDataset(DatasetConfig{Seed: 113, SeriesPerClass: 5})
	opts := Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10}
	victim := d.Series[4]
	ctx := context.Background()
	injected := errors.New("injected tombstone fault")

	// index is the surface the two index types share for this property.
	type index interface {
		Remove(id string) error
		Len() int
		CloseStore() error
	}
	run := func(t *testing.T, dir string, open func(fs *vfs.FaultFS) (index, func() string)) {
		fs := faultFSFrom(t, dir)
		ix, nearest := open(fs)
		fs.FailAt(1, injected)
		if err := ix.Remove(victim.ID); !errors.Is(err, injected) {
			t.Fatalf("Remove over a failing tombstone log: %v, want the injected fault", err)
		}
		if got := nearest(); got != victim.ID || ix.Len() != len(d.Series) {
			t.Fatalf("failed Remove lost the series: nearest %q, %d series", got, ix.Len())
		}
		if err := ix.Remove(victim.ID); err != nil {
			t.Fatalf("retry after the fault cleared: %v", err)
		}
		if got := nearest(); got == victim.ID || ix.Len() != len(d.Series)-1 {
			t.Fatalf("retried Remove did not take: nearest %q, %d series", got, ix.Len())
		}
		if err := ix.CloseStore(); err != nil {
			t.Fatal(err)
		}
		back, nearest := open(fs)
		defer back.CloseStore()
		if got := nearest(); got == victim.ID || back.Len() != len(d.Series)-1 {
			t.Fatalf("removed series resurrected at reopen: nearest %q, %d series", got, back.Len())
		}
	}

	t.Run("index", func(t *testing.T) {
		_, cold, dir := storeAndFlat(t, "engine", d.Series, opts)
		cold.CloseStore()
		run(t, dir, func(fs *vfs.FaultFS) (index, func() string) {
			ix, err := OpenIndex(dir, opts, withStoreFS(fs))
			if err != nil {
				t.Fatal(err)
			}
			return ix, func() string {
				nbrs, _, err := ix.Search(ctx, Series{Values: victim.Values})
				if err != nil || len(nbrs) != 1 {
					t.Fatalf("search: %v, %v", nbrs, err)
				}
				return ix.Series(nbrs[0].Pos).ID
			}
		})
	})
	t.Run("sharded", func(t *testing.T) {
		si, err := NewShardedIndex(d.Series, 3, opts)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "sharded")
		if err := si.SaveStore(dir); err != nil {
			t.Fatal(err)
		}
		run(t, dir, func(fs *vfs.FaultFS) (index, func() string) {
			ix, err := OpenShardedIndex(dir, opts, withStoreFS(fs))
			if err != nil {
				t.Fatal(err)
			}
			return ix, func() string {
				hits, _, err := ix.Search(ctx, Series{Values: victim.Values})
				if err != nil || len(hits) != 1 {
					t.Fatalf("search: %v, %v", hits, err)
				}
				return hits[0].ID
			}
		})
	})
}
