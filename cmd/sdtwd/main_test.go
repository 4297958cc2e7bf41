package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdtw"
)

// TestBuildIndex drives every way the flags can resolve to an index (or
// a refusal): a fresh engine cluster, engine and windowed store roots,
// and the combinations sdtwd must turn away at start-up.
func TestBuildIndex(t *testing.T) {
	d := sdtw.GunDataset(sdtw.DatasetConfig{Seed: 3, SeriesPerClass: 6})
	// buildIndex opens engine roots under the default options.
	opts := sdtw.DefaultOptions()
	opts.StoreSegmentRecords = 2 // sealed segments, so corruption is not a repairable torn tail
	engine, err := sdtw.NewShardedIndex(d.Series, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	engineRoot := filepath.Join(t.TempDir(), "engine")
	if err := engine.SaveStore(engineRoot); err != nil {
		t.Fatal(err)
	}
	windowed, err := sdtw.NewShardedWindowedIndex(d.Series, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	windowedRoot := filepath.Join(t.TempDir(), "windowed")
	if err := windowed.SaveStore(windowedRoot); err != nil {
		t.Fatal(err)
	}
	// A root with one corrupt sealed segment: refused unless quarantine
	// is allowed.
	damagedRoot := filepath.Join(t.TempDir(), "damaged")
	if err := engine.SaveStore(damagedRoot); err != nil {
		t.Fatal(err)
	}
	sealed, err := filepath.Glob(filepath.Join(damagedRoot, "shard-0001", "seg-*.hot"))
	if err != nil || len(sealed) < 2 {
		t.Fatalf("want sealed segments in shard 1, got %v (%v)", sealed, err)
	}
	data, err := os.ReadFile(sealed[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0xff
	if err := os.WriteFile(sealed[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		backend    string
		store      string
		shards     int
		workers    int
		quarantine bool

		wantErr    string // substring of the refusal; "" means the build succeeds
		wantIs     error
		wantShards int
		wantLen    int
		wantStore  bool
		wantRadius int
		degraded   bool
	}{
		{name: "fresh engine cluster", backend: "engine", shards: 5, workers: 2, wantShards: 5, wantRadius: -1},
		{name: "fresh cluster needs a shard", backend: "engine", shards: 0, wantErr: "at least one shard"},
		{name: "windowed without a store", backend: "windowed", shards: 4, wantErr: "-store"},
		{name: "unknown backend", backend: "fastdtw", shards: 4, wantErr: `unknown -backend "fastdtw"`},
		{name: "unknown backend over a store", backend: "fastdtw", store: engineRoot, wantErr: `unknown -backend "fastdtw"`},
		{name: "engine store", backend: "engine", store: engineRoot, shards: 9, workers: 2,
			wantShards: 3, wantLen: len(d.Series), wantStore: true, wantRadius: -1},
		{name: "windowed store", backend: "windowed", store: windowedRoot,
			wantShards: 2, wantLen: len(d.Series), wantStore: true, wantRadius: 10},
		{name: "workers flag over a windowed store", backend: "windowed", store: windowedRoot, workers: 1,
			wantErr: "-workers 1 applies to -backend engine only"},
		{name: "engine flag over a windowed store", backend: "engine", store: windowedRoot, wantIs: sdtw.ErrConfigMismatch},
		{name: "windowed flag over an engine store", backend: "windowed", store: engineRoot, wantIs: sdtw.ErrConfigMismatch},
		{name: "missing store", backend: "engine", store: filepath.Join(t.TempDir(), "nope"), wantIs: sdtw.ErrCorruptManifest},
		{name: "damaged store refused", backend: "engine", store: damagedRoot, wantIs: sdtw.ErrCorruptSegment},
		{name: "damaged store under -allow-quarantine", backend: "engine", store: damagedRoot, quarantine: true,
			wantShards: 3, wantStore: true, wantRadius: -1, degraded: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := buildIndex(tc.backend, tc.store, tc.shards, tc.workers, tc.quarantine)
			if tc.wantErr != "" || tc.wantIs != nil {
				if err == nil {
					ix.CloseStore()
					t.Fatal("build succeeded, want a refusal")
				}
				if tc.wantIs != nil && !errors.Is(err, tc.wantIs) {
					t.Fatalf("refused with %v, want %v", err, tc.wantIs)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("refused with %q, want it to mention %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if ix.StoreBacked() {
				defer ix.CloseStore()
			}
			if ix.Shards() != tc.wantShards || ix.StoreBacked() != tc.wantStore || ix.Radius() != tc.wantRadius {
				t.Fatalf("built %d shards, store-backed %v, radius %d; want %d, %v, %d",
					ix.Shards(), ix.StoreBacked(), ix.Radius(), tc.wantShards, tc.wantStore, tc.wantRadius)
			}
			if !tc.degraded {
				if ix.Len() != tc.wantLen {
					t.Fatalf("serving %d series, want %d", ix.Len(), tc.wantLen)
				}
				return
			}
			stats, err := ix.StoreStats()
			if err != nil {
				t.Fatal(err)
			}
			if !stats.Health.Degraded() || ix.Len()+stats.Health.QuarantinedRecords != len(d.Series) {
				t.Fatalf("degraded open serves %d series with health %+v, want %d in total",
					ix.Len(), stats.Health, len(d.Series))
			}
		})
	}
}
