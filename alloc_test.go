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
// no more allocations than the 34 a search made while it still
// allocated its candidate queue per call. The queue, the query's sketch
// means and its segment weights are pooled across searches, so only what
// a search returns and its per-search bookkeeping remain. The garbage
// collector is off while it measures, so the pool stays warm.
func TestSearchAllocatesIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers and instruments allocations")
	}
	const length, radius, maxAllocs, maxBytes = 128, 3, 34, 4096
	d := TraceDataset(DatasetConfig{Seed: 42, SeriesPerClass: 5004, Length: length})
	queries, all := d.Series[:16], d.Series[16:]
	perSearch := func(n int) (bytes, allocs float64) {
		ix, err := NewWindowedIndex(all[:n], radius)
		if err != nil {
			t.Fatal(err)
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
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
