package sdtw

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestIndexConcurrentQueries hammers a single Index from many goroutines
// mixing every query entry point. The engine documents itself as safe for
// concurrent use; this proves the claim for the cascaded worker-pool
// search path too. Run it under -race (the CI race lane does).
func TestIndexConcurrentQueries(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 21, SeriesPerClass: 4})
	ix, err := NewIndex(d.Series, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const goroutines = 8
	const rounds = 4

	// One reference result per query to compare the concurrent runs
	// against: concurrency must not change what a query returns.
	want := make([][]Neighbor, len(d.Series))
	for i, q := range d.Series {
		nbrs, _, err := ix.Search(ctx, q, WithK(3))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = nbrs
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				qi := (g + r) % len(d.Series)
				q := d.Series[qi]
				switch (g + r) % 3 {
				case 0:
					nbrs, _, err := ix.Search(ctx, q, WithK(3))
					if err != nil {
						errs <- err
						return
					}
					for j := range nbrs {
						if nbrs[j] != want[qi][j] {
							t.Errorf("goroutine %d: query %d rank %d diverged under concurrency: %+v vs %+v",
								g, qi, j, nbrs[j], want[qi][j])
							return
						}
					}
				case 1:
					if _, err := ix.Labels(ctx, q, WithK(3)); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, _, err := ix.SearchBatch(ctx, d.Series[:4], WithK(2)); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestNeighborsNameTheirSeriesUnderMutation: while Add and Remove
// renumber positions underneath, every Neighbor from Search and
// SearchBatch carries the ID and Label of the very series whose distance
// it reports, and Labels votes with such labels. Results used to carry a
// position only, and Labels took the index's lock for the lookup; now
// the ID and Label are copied inside the search. Every series has a
// unique label, so a neighbour resolved against a renumbered collection
// would show another series' label or a distance that is not its own.
// Run under -race (the CI race lane does).
func TestNeighborsNameTheirSeriesUnderMutation(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 31, SeriesPerClass: 6})
	byID := make(map[string]Series, d.Len())
	byLabel := make(map[int]Series, d.Len())
	for i := range d.Series {
		d.Series[i].Label = 100 + i
		byID[d.Series[i].ID] = d.Series[i]
		byLabel[100+i] = d.Series[i]
	}
	// churn sits at the low positions, so removing it renumbers stable;
	// the queries come from stable, which is never touched.
	churn, stable, extra := d.Series[:8], d.Series[8:16], d.Series[16:]
	opts := Options{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10}
	ix, err := NewIndex(d.Series[:16], opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewEngine(opts)
	ctx := context.Background()

	// own fails unless nb is, field for field, a series of the data set at
	// its true distance from q.
	own := func(q Series, nb Neighbor) error {
		s, ok := byID[nb.ID]
		if !ok || nb.ID == q.ID || nb.Pos < 0 {
			return fmt.Errorf("query %q: neighbour %+v names no candidate series", q.ID, nb)
		}
		res, err := ref.DistanceSeries(q, s)
		if err != nil {
			return err
		}
		if nb.Label != s.Label || math.Float64bits(nb.Distance) != math.Float64bits(res.Distance) {
			return fmt.Errorf("query %q: neighbour %+v is not series %q (label %d, distance %v)",
				q.ID, nb, s.ID, s.Label, res.Distance)
		}
		return nil
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; ; r++ {
				select {
				case <-done:
					return
				default:
				}
				q := stable[(g+r)%len(stable)]
				var lists [][]Neighbor
				queries := []Series{q}
				switch r % 3 {
				case 0:
					nbrs, _, err := ix.Search(ctx, q, WithK(4))
					if err != nil {
						errs <- err
						return
					}
					lists = [][]Neighbor{nbrs}
				case 1:
					queries = stable[:3]
					batch, _, err := ix.SearchBatch(ctx, queries, WithK(3))
					if err != nil {
						errs <- err
						return
					}
					lists = batch
				case 2:
					// k = 1 over unique labels: the vote is the nearest
					// neighbour's own label.
					labels, err := ix.Labels(ctx, q, WithK(1))
					if err != nil {
						errs <- err
						return
					}
					s, ok := byLabel[labels[0]]
					if len(labels) != 1 || !ok || s.ID == q.ID {
						errs <- fmt.Errorf("query %q: Labels voted %v, not one candidate's label", q.ID, labels)
						return
					}
				}
				for i, nbrs := range lists {
					for _, nb := range nbrs {
						if err := own(queries[i], nb); err != nil {
							errs <- err
							return
						}
					}
				}
			}
		}()
	}
	mutate := func() error {
		for round := 0; round < 3; round++ {
			for _, s := range churn {
				if err := ix.Remove(s.ID); err != nil {
					return err
				}
			}
			for _, s := range extra {
				if err := ix.Add(s); err != nil {
					return err
				}
			}
			for _, s := range churn {
				if err := ix.Add(s); err != nil {
					return err
				}
			}
			for _, s := range extra {
				if err := ix.Remove(s.ID); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := mutate(); err != nil {
		t.Error(err)
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
