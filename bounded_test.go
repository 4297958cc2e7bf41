package sdtw

import (
	"context"
	"math"
	"testing"

	"sdtw/internal/dtw"
)

func boundedWorkload(t *testing.T) *Dataset {
	t.Helper()
	return TraceDataset(DatasetConfig{Seed: 31, SeriesPerClass: 6})
}

func TestWindowedIndexExactAgainstBruteForce(t *testing.T) {
	d := boundedWorkload(t)
	ix, err := NewWindowedIndex(d.Series, -1) // unconstrained DTW
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	for _, q := range []int{0, 7, 13} {
		got, stats, err := ix.Search(context.Background(), d.Series[q], WithK(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("got %d neighbours", len(got))
		}
		// Brute force for comparison.
		type nb struct {
			pos int
			d   float64
		}
		var all []nb
		for i := range d.Series {
			if i == q {
				continue
			}
			dist, err := DTW(d.Series[q].Values, d.Series[i].Values)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, nb{i, dist})
		}
		for rank := 0; rank < k; rank++ {
			best := 0
			for i := 1; i < len(all); i++ {
				if all[i].d < all[best].d || (all[i].d == all[best].d && all[i].pos < all[best].pos) {
					best = i
				}
			}
			if math.Abs(all[best].d-got[rank].Distance) > 1e-9 {
				t.Fatalf("query %d rank %d: windowed %v (pos %d) vs brute %v (pos %d)",
					q, rank, got[rank].Distance, got[rank].Pos, all[best].d, all[best].pos)
			}
			all[best] = all[len(all)-1]
			all = all[:len(all)-1]
		}
		if stats.Evaluated+stats.PrunedSketch+stats.PrunedKim+stats.PrunedKeogh != stats.Candidates {
			t.Fatalf("stats do not add up: %+v", stats)
		}
	}
}

func TestWindowedIndexWindowedExact(t *testing.T) {
	d := boundedWorkload(t)
	radius := 20
	ix, err := NewWindowedIndex(d.Series, radius)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Radius() != radius {
		t.Fatalf("radius = %d", ix.Radius())
	}
	if ix.Engine() != nil {
		t.Fatal("windowed index reports an sDTW engine")
	}
	got, _, err := ix.Search(context.Background(), d.Series[2], WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	// Windowed distances must match a direct computation on the band at
	// exactly the envelope radius (not the widthFrac-derived band, whose
	// ceil rounding widens the radius by one).
	want, _, err := dtw.Banded(d.Series[2].Values, d.Series[got[0].Pos].Values,
		dtw.SakoeChibaRadius(d.Length, d.Length, radius))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0].Distance-want) > 1e-9 {
		t.Fatalf("windowed distance %v != direct %v", got[0].Distance, want)
	}
}

// TestWindowedIndexTies: duplicate series produce duplicate distances;
// ties must resolve by ascending collection position, deterministically.
func TestWindowedIndexTies(t *testing.T) {
	base := []float64{0, 1, 3, 2, 1, 0, 1, 2}
	far := []float64{9, 9, 9, 9, 9, 9, 9, 9}
	data := []Series{
		NewSeries("", 0, base), // pos 0: distance 0 to the query
		NewSeries("", 1, far),  // pos 1: far away
		NewSeries("", 2, base), // pos 2: distance 0 again
		NewSeries("", 3, base), // pos 3: distance 0 again
	}
	ix, err := NewWindowedIndex(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	query := NewSeries("q", 0, base)
	got, _, err := ix.Search(context.Background(), query, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	wantPos := []int{0, 2, 3}
	if len(got) != len(wantPos) {
		t.Fatalf("got %d neighbours, want %d", len(got), len(wantPos))
	}
	for i, nb := range got {
		if nb.Pos != wantPos[i] || nb.Distance != 0 {
			t.Fatalf("rank %d: %+v, want pos %d at distance 0", i, nb, wantPos[i])
		}
	}
	// With k=2 only the two lowest positions among the tied trio survive.
	got, _, err = ix.Search(context.Background(), query, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Pos != 0 || got[1].Pos != 2 {
		t.Fatalf("k=2 tie-break by position failed: %+v", got)
	}
}

// TestWindowedIndexKExceedsCollection: k beyond the candidate count
// returns every candidate, ranked, rather than erroring or padding.
func TestWindowedIndexKExceedsCollection(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 61, SeriesPerClass: 2})
	ix, err := NewWindowedIndex(d.Series, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := ix.Search(context.Background(), d.Series[0], WithK(d.Len()+50))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != d.Len()-1 {
		t.Fatalf("got %d neighbours, want every other candidate (%d)", len(got), d.Len()-1)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Distance < got[i-1].Distance {
			t.Fatalf("neighbours not ascending at rank %d: %+v", i, got)
		}
	}
	if stats.Evaluated+stats.PrunedSketch+stats.PrunedKim+stats.PrunedKeogh != stats.Candidates {
		t.Fatalf("stats do not partition candidates: %+v", stats)
	}
	// The heap never fills, so the threshold stays +Inf and nothing may
	// be pruned or abandoned away.
	if stats.PrunedSketch+stats.PrunedKim+stats.PrunedKeogh+stats.AbandonedDTW != 0 {
		t.Fatalf("work was skipped although every candidate is a result: %+v", stats)
	}
}

// TestWindowedIndexSelfExclusionByID mirrors cascade_test.go's harness:
// a query sharing an indexed series' non-empty ID is excluded from its
// own candidate set, so leave-one-out never reports a 0-distance self
// match; empty IDs are never treated as equal.
func TestWindowedIndexSelfExclusionByID(t *testing.T) {
	d := boundedWorkload(t)
	ix, err := NewWindowedIndex(d.Series, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{0, 5, d.Len() - 1} {
		got, stats, err := ix.Search(context.Background(), d.Series[q], WithK(d.Len()))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Candidates != d.Len()-1 {
			t.Fatalf("query %d: %d candidates, want %d after self-exclusion", q, stats.Candidates, d.Len()-1)
		}
		for _, nb := range got {
			if nb.Pos == q {
				t.Fatalf("query %d returned itself: %+v", q, nb)
			}
		}
	}
	// Empty IDs must not match each other: two anonymous series are
	// candidates for one another.
	anon := []Series{
		NewSeries("", 0, []float64{0, 1, 2, 1, 0, 1, 2, 1}),
		NewSeries("", 1, []float64{2, 1, 0, 1, 2, 1, 0, 1}),
	}
	ixa, err := NewWindowedIndex(anon, -1)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := ixa.Search(context.Background(), anon[0], WithK(1))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Candidates != 2 {
		t.Fatalf("anonymous series excluded by empty ID: %d candidates, want 2", stats.Candidates)
	}
	if len(got) != 1 || got[0].Pos != 0 || got[0].Distance != 0 {
		t.Fatalf("anonymous self-query top-1 = %+v, want pos 0 at distance 0", got)
	}
}

func TestWindowedIndexPrunes(t *testing.T) {
	// On a structured workload with tight warping windows, the cascade
	// must discard a meaningful share of candidates without DTW work.
	d := TraceDataset(DatasetConfig{Seed: 41, SeriesPerClass: 12})
	ix, err := NewWindowedIndex(d.Series, 15)
	if err != nil {
		t.Fatal(err)
	}
	totalPruned, totalCands := 0, 0
	for q := 0; q < 8; q++ {
		_, stats, err := ix.Search(context.Background(), d.Series[q], WithK(3))
		if err != nil {
			t.Fatal(err)
		}
		totalPruned += stats.PrunedSketch + stats.PrunedKim + stats.PrunedKeogh
		totalCands += stats.Candidates
	}
	rate := float64(totalPruned) / float64(totalCands)
	if rate < 0.2 {
		t.Fatalf("cascade pruned only %.2f of candidates", rate)
	}
}

func TestWindowedIndexValidation(t *testing.T) {
	if _, err := NewWindowedIndex(nil, 5); err == nil {
		t.Fatal("empty collection accepted")
	}
	uneven := []Series{
		NewSeries("a", 0, make([]float64, 10)),
		NewSeries("b", 0, make([]float64, 12)),
	}
	if _, err := NewWindowedIndex(uneven, 5); !IsErr(err, ErrLengthMismatch) {
		t.Fatalf("unequal lengths: got %v, want ErrLengthMismatch", err)
	}
	d := boundedWorkload(t)
	ix, err := NewWindowedIndex(d.Series, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Search(context.Background(), d.Series[0], WithK(0)); !IsErr(err, ErrBadK) {
		t.Fatalf("k=0: got %v, want ErrBadK", err)
	}
	if _, _, err := ix.Search(context.Background(), NewSeries("q", 0, make([]float64, 7)), WithK(3)); !IsErr(err, ErrLengthMismatch) {
		t.Fatalf("wrong-length query: got %v, want ErrLengthMismatch", err)
	}
	if ix.Len() != d.Len() {
		t.Fatalf("Len = %d", ix.Len())
	}
}

func TestSearchStatsPruneRate(t *testing.T) {
	s := SearchStats{Candidates: 10, PrunedKim: 2, PrunedKeogh: 3, Evaluated: 5}
	if got := s.PruneRate(); got != 0.5 {
		t.Fatalf("prune rate = %v", got)
	}
	if (SearchStats{}).PruneRate() != 0 {
		t.Fatal("empty stats prune rate not zero")
	}
}
