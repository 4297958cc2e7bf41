package sdtw

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestSearchAllocatesIndependentOfN pins what a steady-state search
// allocates over a windowed index (the knn-bounds shape: Trace series of
// length 128, radius 3, top 5, one worker): the same bytes whatever the
// collection's size, within 1 KB, at most 4 KB over 20 000 series, and
// at most 15 allocations (a search made 34 while it allocated its
// candidate queue per call, and 31 while the visit's shared state was
// captured by its closures). The queue, the query's sketch means and
// segment weights and the visit's state are pooled across searches, so
// little more than what a search returns remains.
func TestSearchAllocatesIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers and instruments allocations")
	}
	const length, radius, maxAllocs, maxBytes = 128, 3, 15, 4096
	d := TraceDataset(DatasetConfig{Seed: 42, SeriesPerClass: 5004, Length: length})
	queries, all := d.Series[:16], d.Series[16:]
	perSearch := func(n int) (bytes, allocs float64) {
		ix, err := NewWindowedIndex(all[:n], radius)
		if err != nil {
			t.Fatal(err)
		}
		// The garbage collector is off and there is one processor while
		// it measures, so a buffer a search puts back in a pool is the one
		// the next search takes.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		search := func(q Series) {
			if _, _, err := ix.Search(context.Background(), q, WithK(5), WithWorkers(1)); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range queries {
			search(q)
		}
		const rounds = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < rounds; r++ {
			for _, q := range queries {
				search(q)
			}
		}
		runtime.ReadMemStats(&after)
		searches := float64(rounds * len(queries))
		return float64(after.TotalAlloc-before.TotalAlloc) / searches, float64(after.Mallocs-before.Mallocs) / searches
	}
	smallBytes, smallAllocs := perSearch(2000)
	bigBytes, bigAllocs := perSearch(20000)
	t.Logf("per search: N = 2 000: %.0f B in %.1f allocations; N = 20 000: %.0f B in %.1f", smallBytes, smallAllocs, bigBytes, bigAllocs)
	if diff := bigBytes - smallBytes; diff > 1024 || diff < -1024 {
		t.Errorf("a search allocates %.0f B at N = 20 000 and %.0f B at N = 2 000: it grows with the collection", bigBytes, smallBytes)
	}
	if bigBytes > maxBytes {
		t.Errorf("a search over 20 000 series allocates %.0f B, want <= %d", bigBytes, maxBytes)
	}
	if smallAllocs > maxAllocs || bigAllocs > maxAllocs {
		t.Errorf("a search makes %.1f (N = 2 000) and %.1f (N = 20 000) allocations, want <= %d", smallAllocs, bigAllocs, maxAllocs)
	}
}
