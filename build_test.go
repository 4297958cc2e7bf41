package sdtw

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"sdtw/internal/retrieve"
)

// sameCore fails unless two cores hold the same series in the same
// order with bit-identical envelopes and sketches, and answer a fixed
// query set with bit-identical hits and stage counts under one worker.
func sameCore(t *testing.T, name string, serial, parallel *retrieve.Core, queries []Series) {
	t.Helper()
	if serial.Len() != parallel.Len() {
		t.Fatalf("%s: Len %d (serial) != %d (parallel)", name, serial.Len(), parallel.Len())
	}
	if serial.SketchWidth() != parallel.SketchWidth() {
		t.Fatalf("%s: sketch width %d != %d", name, serial.SketchWidth(), parallel.SketchWidth())
	}
	for i := 0; i < serial.Len(); i++ {
		if a, b := serial.Series(i), parallel.Series(i); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: position %d holds %q (serial), %q (parallel)", name, i, a.ID, b.ID)
		}
		if !reflect.DeepEqual(serial.Envelope(i), parallel.Envelope(i)) {
			t.Fatalf("%s: position %d: envelopes differ", name, i)
		}
		if !reflect.DeepEqual(serial.Sketch(i), parallel.Sketch(i)) {
			t.Fatalf("%s: position %d: sketches differ", name, i)
		}
	}
	p := retrieve.DefaultParams()
	p.K, p.Workers = 3, 1
	for _, q := range queries {
		a, sa, err := serial.Search(context.Background(), q, p)
		if err != nil {
			t.Fatal(err)
		}
		b, sb, err := parallel.Search(context.Background(), q, p)
		if err != nil {
			t.Fatal(err)
		}
		requireSameHits(t, name+": query "+q.ID, a, b)
		if !sameStageCounts(sa, sb) {
			t.Fatalf("%s: query %q: stats %v (serial), %v (parallel)", name, q.ID, sa, sb)
		}
	}
}

// withGOMAXPROCS runs f with GOMAXPROCS at n — the pool width of a
// windowed index, which has no worker option.
func withGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestParallelBuildMatchesSerial: an index built on a four-worker pool
// is the index a single worker builds — the same series in the same
// order, the same feature extraction count, bit-identical envelopes and
// sketches, and bit-identical hits and stage counts for a fixed query
// set — for NewIndex, NewWindowedIndex and NewShardedIndex.
func TestParallelBuildMatchesSerial(t *testing.T) {
	d := GunDataset(DatasetConfig{Seed: 37, SeriesPerClass: 12})
	queries := GunDataset(DatasetConfig{Seed: 38, SeriesPerClass: 2}).Series
	for i := range queries {
		queries[i].ID = "query-" + queries[i].ID
	}
	opts := func(workers int) Options {
		o := DefaultOptions()
		o.Workers = workers
		return o
	}

	t.Run("NewIndex", func(t *testing.T) {
		serial, err := NewIndex(d.Series, opts(1))
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := NewIndex(d.Series, opts(4))
		if err != nil {
			t.Fatal(err)
		}
		if a, b := extractions(serial.Engine()), extractions(parallel.Engine()); a != b || a != int64(d.Len()) {
			t.Fatalf("extractions %d (serial), %d (parallel); want %d", a, b, d.Len())
		}
		sameCore(t, "flat engine", serial.core, parallel.core, queries)
	})

	t.Run("NewWindowedIndex", func(t *testing.T) {
		var serial, parallel *Index
		var err error
		withGOMAXPROCS(1, func() { serial, err = NewWindowedIndex(d.Series, 10) })
		if err != nil {
			t.Fatal(err)
		}
		withGOMAXPROCS(4, func() { parallel, err = NewWindowedIndex(d.Series, 10) })
		if err != nil {
			t.Fatal(err)
		}
		sameCore(t, "flat windowed", serial.core, parallel.core, queries)
	})

	t.Run("NewShardedIndex", func(t *testing.T) {
		serial, err := NewShardedIndex(d.Series, 3, opts(1))
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := NewShardedIndex(d.Series, 3, opts(4))
		if err != nil {
			t.Fatal(err)
		}
		if a, b := extractions(serial.family.engine), extractions(parallel.family.engine); a != b || a != int64(d.Len()) {
			t.Fatalf("extractions %d (serial), %d (parallel); want %d", a, b, d.Len())
		}
		for i := range serial.shards {
			sameCore(t, "shard", serial.shards[i].snap.Load().Core, parallel.shards[i].snap.Load().Core, queries)
		}
		for _, q := range queries {
			a, _, err := serial.Search(context.Background(), q, WithK(3))
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := parallel.Search(context.Background(), q, WithK(3))
			if err != nil {
				t.Fatal(err)
			}
			requireSameHits(t, "sharded: query "+q.ID, a, b)
		}
	})
}

// TestParallelBuildReportsLowestFailure: with non-finite series at
// positions 3 and 7, a build on an eight-worker pool reports series 3 —
// the failure a serial build stops at — on every run, whichever worker
// reaches its failure first.
func TestParallelBuildReportsLowestFailure(t *testing.T) {
	d := GunDataset(DatasetConfig{Seed: 41, SeriesPerClass: 8})
	data := append([]Series(nil), d.Series...)
	// Series 3 fails only at its last value, series 7 at its first, so
	// series 7 tends to fail first.
	data[3] = withValue(data[3], data[3].Len()-1, math.NaN())
	data[7] = withValue(data[7], 0, math.Inf(1))
	opts := DefaultOptions()
	opts.Workers = 8
	check := func(kind string, err error) {
		t.Helper()
		if !IsErr(err, ErrNonFinite) || !strings.Contains(err.Error(), "series 3:") {
			t.Fatalf("%s: %v; want series 3 reported with ErrNonFinite", kind, err)
		}
	}
	for run := 0; run < 50; run++ {
		_, err := NewIndex(data, opts)
		check("NewIndex", err)
		withGOMAXPROCS(8, func() { _, err = NewWindowedIndex(data, 10) })
		check("NewWindowedIndex", err)
	}
}
