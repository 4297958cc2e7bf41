package retrieve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdtw/internal/series"
)

// testCore builds a windowed-backend core over n equal-length series with
// IDs s-0..s-(n-1). The windowed backend is the natural in-package test
// backend: it needs no engine configuration and exercises the full
// cascade.
func testCore(t *testing.T, n, length int) *Core {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	data := make([]series.Series, n)
	for i := range data {
		vals := make([]float64, length)
		for j := range vals {
			vals[j] = rng.NormFloat64()
		}
		data[i] = series.Series{ID: "s-" + string(rune('0'+i/10)) + string(rune('0'+i%10)), Label: i % 3, Values: vals}
	}
	backend, _, err := NewWindowedBackend(length, 5)
	if err != nil {
		t.Fatalf("NewWindowedBackend: %v", err)
	}
	c, err := New(backend, data, 2, true)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

// checkIDsConsistent verifies the ids map and the data slice agree: every
// ID maps to the position actually holding it, with no extra entries.
func checkIDsConsistent(t *testing.T, c *Core) {
	t.Helper()
	if len(c.ids) != len(c.data) {
		t.Fatalf("ids has %d entries, data has %d series", len(c.ids), len(c.data))
	}
	for id, pos := range c.ids {
		if pos < 0 || pos >= len(c.data) {
			t.Fatalf("id %q maps to out-of-range position %d", id, pos)
		}
		if c.data[pos].ID != id {
			t.Fatalf("id %q maps to position %d which holds %q", id, pos, c.data[pos].ID)
		}
	}
}

func TestRemoveRenumbersIDs(t *testing.T) {
	c := testCore(t, 6, 40)

	// Remove from the middle: everything after shifts down one.
	if err := c.Remove("s-02"); err != nil {
		t.Fatalf("Remove middle: %v", err)
	}
	if c.Len() != 5 {
		t.Fatalf("Len after remove = %d, want 5", c.Len())
	}
	checkIDsConsistent(t, c)

	// Remove the new head and the tail; the map must track both shapes.
	if err := c.Remove("s-00"); err != nil {
		t.Fatalf("Remove head: %v", err)
	}
	if err := c.Remove("s-05"); err != nil {
		t.Fatalf("Remove tail: %v", err)
	}
	checkIDsConsistent(t, c)

	// Unknown and already-removed IDs report ErrUnknownID.
	if err := c.Remove("s-02"); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("double remove: got %v, want ErrUnknownID", err)
	}
	if err := c.Remove(""); err == nil {
		t.Fatal("empty-ID remove succeeded")
	}

	// The collection never drains to empty through the in-place Remove —
	// the flat index's mutator (CloneRemove may: TestEmptyCore).
	if err := c.Remove("s-01"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := c.Remove("s-03"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := c.Remove("s-04"); !errors.Is(err, ErrEmptyCollection) {
		t.Fatalf("removing the last series: got %v, want ErrEmptyCollection", err)
	}

	// Search still works against the surviving series and renumbered map.
	q := c.Series(0)
	nbs, _, err := c.Search(context.Background(), q, DefaultParams())
	if err != nil {
		t.Fatalf("Search after removals: %v", err)
	}
	if len(nbs) != 0 {
		// q shares the survivor's ID, so self-exclusion leaves nothing.
		t.Fatalf("self-search over singleton returned %d neighbours, want 0", len(nbs))
	}
}

func TestPerQueryWorkers(t *testing.T) {
	cases := []struct {
		workers, queries, want int
	}{
		{8, 1, 8},  // one query gets the whole budget
		{8, 3, 3},  // ceil(8/3)
		{8, 8, 1},  // exactly one each
		{8, 9, 1},  // more queries than workers: sequential cascades
		{9, 2, 5},  // ceil(9/2)
		{1, 4, 1},  // floor at 1
		{0, 4, 1},  // no budget still runs
		{4, 0, 1},  // degenerate query counts clamp
		{4, -1, 1}, // .
	}
	for _, tc := range cases {
		if got := perQueryWorkers(tc.workers, tc.queries); got != tc.want {
			t.Errorf("perQueryWorkers(%d, %d) = %d, want %d", tc.workers, tc.queries, got, tc.want)
		}
	}
}

func TestParallelForVisitsAll(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		var stop atomic.Bool
		visited := make([]atomic.Int32, 100)
		parallelFor(context.Background(), workers, len(visited), &stop, func(i int) {
			visited[i].Add(1)
		})
		for i := range visited {
			if n := visited[i].Load(); n != 1 {
				t.Fatalf("workers=%d: index %d visited %d times, want exactly once", workers, i, n)
			}
		}
	}
}

func TestParallelForEarlyStop(t *testing.T) {
	// A pre-set stop flag runs nothing.
	var stop atomic.Bool
	stop.Store(true)
	calls := atomic.Int32{}
	parallelFor(context.Background(), 4, 100, &stop, func(i int) { calls.Add(1) })
	if n := calls.Load(); n != 0 {
		t.Fatalf("pre-stopped parallelFor made %d calls, want 0", n)
	}

	// Setting stop mid-run ends the sweep early (best effort): with the
	// flag raised on the first call, at most one call per worker follows.
	stop.Store(false)
	calls.Store(0)
	parallelFor(context.Background(), 4, 10_000, &stop, func(i int) {
		calls.Add(1)
		stop.Store(true)
	})
	if n := calls.Load(); n > 8 {
		t.Fatalf("stopped parallelFor made %d calls, want a handful", n)
	}

	// A cancelled context stops it the same way.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stop2 atomic.Bool
	calls.Store(0)
	parallelFor(ctx, 4, 10_000, &stop2, func(i int) { calls.Add(1) })
	if n := calls.Load(); n > 8 {
		t.Fatalf("cancelled parallelFor made %d calls, want a handful", n)
	}

	// A nil context is tolerated (the retrieval surfaces accept one).
	var stop3 atomic.Bool
	calls.Store(0)
	parallelFor(nil, 2, 50, &stop3, func(i int) { calls.Add(1) })
	if n := calls.Load(); n != 50 {
		t.Fatalf("nil-ctx parallelFor made %d calls, want 50", n)
	}
}

// TestParallelForWaitsForInflight pins the no-leak contract: parallelFor
// returns only after every in-flight fn call finishes, even when stop is
// raised while calls are still running.
func TestParallelForWaitsForInflight(t *testing.T) {
	var stop atomic.Bool
	var inflight, peak atomic.Int32
	var running sync.WaitGroup
	running.Add(1)
	started := make(chan struct{}, 16)
	go func() {
		defer running.Done()
		parallelFor(context.Background(), 4, 100, &stop, func(i int) {
			started <- struct{}{}
			n := inflight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			inflight.Add(-1)
		})
	}()
	<-started // at least one call is in flight
	stop.Store(true)
	running.Wait() // parallelFor returned...
	if n := inflight.Load(); n != 0 {
		t.Fatalf("parallelFor returned with %d calls still in flight", n)
	}
	if peak.Load() == 0 {
		t.Fatal("no call observed in flight")
	}
}

func TestSharedThresholdMonotone(t *testing.T) {
	th := NewSharedThreshold(math.Inf(1))
	if !math.IsInf(th.Load(), 1) {
		t.Fatalf("fresh threshold = %v, want +Inf", th.Load())
	}
	th.Tighten(5)
	if th.Load() != 5 {
		t.Fatalf("after Tighten(5): %v", th.Load())
	}
	th.Tighten(9) // looser: ignored
	if th.Load() != 5 {
		t.Fatalf("Tighten(9) loosened the threshold to %v", th.Load())
	}
	th.Tighten(5) // equal: no-op
	if th.Load() != 5 {
		t.Fatalf("Tighten(5) changed the threshold to %v", th.Load())
	}

	// Concurrent tightening converges to the minimum.
	th = NewSharedThreshold(math.Inf(1))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 1000; i++ {
				th.Tighten(1 + rng.Float64()*100)
			}
			th.Tighten(float64(w) + 0.5)
		}(w)
	}
	wg.Wait()
	if th.Load() != 0.5 {
		t.Fatalf("concurrent Tighten converged to %v, want 0.5", th.Load())
	}
}

func TestCloneAddRemoveIsolation(t *testing.T) {
	c := testCore(t, 4, 40)
	ctx := context.Background()
	q := series.Series{ID: "q", Values: c.Series(0).Values}
	before, _, err := c.Search(ctx, q, Params{K: 4, Exclude: -1, Threshold: math.Inf(1)})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}

	// CloneAdd: the clone gains the series, the receiver is untouched.
	extra := series.Series{ID: "extra", Label: 7, Values: c.Series(1).Values}
	nc, err := c.CloneAdd(extra)
	if err != nil {
		t.Fatalf("CloneAdd: %v", err)
	}
	if c.Len() != 4 || nc.Len() != 5 {
		t.Fatalf("lengths after CloneAdd: receiver %d (want 4), clone %d (want 5)", c.Len(), nc.Len())
	}
	if _, ok := c.ids["extra"]; ok {
		t.Fatal("CloneAdd mutated the receiver's ids map")
	}
	checkIDsConsistent(t, nc)
	if _, err := nc.CloneAdd(extra); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate CloneAdd: got %v, want ErrDuplicateID", err)
	}

	// CloneRemove: reports the vacated position; the receiver keeps it.
	nc2, pos, err := c.CloneRemove("s-01")
	if err != nil {
		t.Fatalf("CloneRemove: %v", err)
	}
	if pos != 1 {
		t.Fatalf("CloneRemove position = %d, want 1", pos)
	}
	if c.Len() != 4 || nc2.Len() != 3 {
		t.Fatalf("lengths after CloneRemove: receiver %d (want 4), clone %d (want 3)", c.Len(), nc2.Len())
	}
	checkIDsConsistent(t, c)
	checkIDsConsistent(t, nc2)
	if _, _, err := c.CloneRemove("nope"); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("unknown CloneRemove: got %v, want ErrUnknownID", err)
	}

	// The receiver's search results are unchanged by either clone.
	after, _, err := c.Search(ctx, q, Params{K: 4, Exclude: -1, Threshold: math.Inf(1)})
	if err != nil {
		t.Fatalf("Search after clones: %v", err)
	}
	if len(before) != len(after) {
		t.Fatalf("receiver results changed: %d -> %d neighbours", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("receiver result %d changed: %+v -> %+v", i, before[i], after[i])
		}
	}
}

// TestEmptyCore pins the emptiness contract: both constructors accept
// zero series, an empty core answers a search with no neighbours, fills
// through CloneAdd and is what CloneRemove of the last series returns —
// cold or warm — while the receiver keeps serving what it held.
func TestEmptyCore(t *testing.T) {
	const length = 40
	backend, _, err := NewWindowedBackend(length, 5)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := New(backend, nil, 2, true)
	if err != nil {
		t.Fatalf("New over no series: %v", err)
	}
	if err := warm.EnableSketches(8); err != nil {
		t.Fatalf("EnableSketches on an empty core: %v", err)
	}
	cold, err := RestoreCold(backend, nil, 8, 2, true)
	if err != nil {
		t.Fatalf("RestoreCold over no series: %v", err)
	}
	only := testCore(t, 1, length).Series(0)
	q := series.Series{ID: "q", Values: only.Values}
	ctx := context.Background()
	for name, empty := range map[string]*Core{"warm": warm, "cold": cold} {
		if empty.Len() != 0 {
			t.Fatalf("%s: empty core holds %d series", name, empty.Len())
		}
		if nbs, st, err := empty.Search(ctx, q, DefaultParams()); err != nil || len(nbs) != 0 || st.Candidates != 0 {
			t.Fatalf("%s: search on an empty core = %v, %+v, %v", name, nbs, st, err)
		}
		if _, _, err := empty.Search(ctx, series.Series{}, DefaultParams()); !errors.Is(err, ErrEmptySeries) {
			t.Fatalf("%s: empty query on an empty core: %v, want ErrEmptySeries", name, err)
		}
		if _, _, err := empty.CloneRemove(only.ID); !errors.Is(err, ErrUnknownID) {
			t.Fatalf("%s: CloneRemove on an empty core: %v, want ErrUnknownID", name, err)
		}
		one, err := empty.CloneAdd(only)
		if err != nil {
			t.Fatalf("%s: CloneAdd onto an empty core: %v", name, err)
		}
		if nbs, _, err := one.Search(ctx, q, DefaultParams()); err != nil || len(nbs) != 1 || nbs[0].ID != only.ID || nbs[0].Distance != 0 {
			t.Fatalf("%s: search after the first CloneAdd = %v, %v", name, nbs, err)
		}
		if one.SketchWidth() != 8 {
			t.Fatalf("%s: sketch width %d after the first CloneAdd, want 8", name, one.SketchWidth())
		}
		drained, pos, err := one.CloneRemove(only.ID)
		if err != nil || pos != 0 || drained.Len() != 0 || one.Len() != 1 {
			t.Fatalf("%s: CloneRemove of the last series = pos %d, %v; copy holds %d, receiver %d",
				name, pos, err, drained.Len(), one.Len())
		}
		checkIDsConsistent(t, drained)
		// The in-place mutator is the flat index's: it still refuses.
		if err := one.Remove(only.ID); !errors.Is(err, ErrEmptyCollection) {
			t.Fatalf("%s: in-place Remove of the last series: %v, want ErrEmptyCollection", name, err)
		}
		if _, err := drained.CloneAdd(only); err != nil {
			t.Fatalf("%s: refilling a drained core: %v", name, err)
		}
	}
}

// TestParamsZeroValueGuards regression-pins the two zero-value traps a
// Params struct literal used to spring: Threshold 0 silently emptying
// results, and Exclude 0 silently dropping position 0.
func TestParamsZeroValueGuards(t *testing.T) {
	dp := DefaultParams()
	if dp.K != 1 || dp.Exclude != -1 || !math.IsInf(dp.Threshold, 1) || dp.ThresholdSet {
		t.Fatalf("DefaultParams = %+v", dp)
	}

	cases := []struct {
		name string
		p    Params
		want float64
	}{
		{"zero value", Params{}, math.Inf(1)},
		{"explicit zero", Params{Threshold: 0, ThresholdSet: true}, 0},
		{"legacy nonzero, unset", Params{Threshold: 2.5}, 2.5},
		{"set nonzero", Params{Threshold: 2.5, ThresholdSet: true}, 2.5},
		{"NaN unset", Params{Threshold: math.NaN()}, math.Inf(1)},
		{"NaN set", Params{Threshold: math.NaN(), ThresholdSet: true}, math.Inf(1)},
	}
	for _, tc := range cases {
		if got := tc.p.EffectiveThreshold(); got != tc.want {
			t.Errorf("%s: EffectiveThreshold = %v, want %v", tc.name, got, tc.want)
		}
	}

	// End to end: a zero-value-ish Params (K set, rest defaulted by
	// omission) must neither empty the results nor exclude position 0.
	c := testCore(t, 5, 40)
	q := series.Series{ID: "q", Values: c.Series(0).Values}
	nbs, _, err := c.Search(context.Background(), q, Params{K: 2, Exclude: -1})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(nbs) != 2 {
		t.Fatalf("Threshold-0-unset search returned %d neighbours, want 2", len(nbs))
	}
	if nbs[0].Pos != 0 || nbs[0].Distance != 0 {
		t.Fatalf("nearest = %+v, want position 0 at distance 0", nbs[0])
	}

	// And an explicit zero threshold really means exact matches only.
	nbs, _, err = c.Search(context.Background(), q, Params{Threshold: 0, ThresholdSet: true, Exclude: -1})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(nbs) != 1 || nbs[0].Pos != 0 || nbs[0].Distance != 0 {
		t.Fatalf("explicit-0 range search = %+v, want exactly position 0 at distance 0", nbs)
	}
}

// TestSearchNilContext pins nil-context tolerance at the core layer.
func TestSearchNilContext(t *testing.T) {
	c := testCore(t, 4, 40)
	q := series.Series{ID: "q", Values: c.Series(2).Values}
	nbs, _, err := c.Search(nil, q, DefaultParams()) //nolint:staticcheck // nil ctx tolerance is the contract under test
	if err != nil {
		t.Fatalf("nil-ctx Search: %v", err)
	}
	if len(nbs) != 1 || nbs[0].Pos != 2 {
		t.Fatalf("nil-ctx Search = %+v, want position 2", nbs)
	}
}
