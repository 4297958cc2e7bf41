package sdtw

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// hubMatchKey is the comparable identity of an emission: the acceptance
// property compares (stream, query, start, end, distance) tuples
// bit-exactly, so Distance is carried as raw bits.
type hubMatchKey struct {
	stream, query string
	start, end    int
	distBits      uint64
}

func hubKey(m StreamMatch) hubMatchKey {
	return hubMatchKey{m.Stream, m.Query, m.Start, m.End, math.Float64bits(m.Distance)}
}

func sortHubKeys(ks []hubMatchKey) {
	sort.Slice(ks, func(i, j int) bool {
		a, b := ks[i], ks[j]
		if a.stream != b.stream {
			return a.stream < b.stream
		}
		if a.query != b.query {
			return a.query < b.query
		}
		if a.start != b.start {
			return a.start < b.start
		}
		return a.end < b.end
	})
}

// hubCollect drains the Matches channel into keys until it closes.
func hubCollect(h *Hub, into *[]hubMatchKey, wg *sync.WaitGroup) {
	defer wg.Done()
	for m := range h.Matches() {
		*into = append(*into, hubKey(m))
	}
}

// hubPushAll pushes vals to streamID in random batch sizes, retrying on
// backpressure.
func hubPushAll(t testing.TB, h *Hub, streamID string, vals []float64, rng *rand.Rand) {
	for off := 0; off < len(vals); {
		n := 1 + rng.Intn(48)
		if off+n > len(vals) {
			n = len(vals) - off
		}
		err := h.PushBatch(streamID, vals[off:off+n])
		if err == nil {
			off += n
			continue
		}
		if !errors.Is(err, ErrHubBackpressure) {
			t.Errorf("PushBatch(%s): %v", streamID, err)
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestHubMatchesMonitorProperty is the fleet acceptance property: over
// random queries, thresholds, gaps and streams, the Hub's emissions
// (stream, query, start, end, distance) are bit-identical to running one
// Monitor per stream over the same queries. Monitor never prefilters, so
// this is also the proof that the Hub's time-domain prefilter changes no
// emission.
func TestHubMatchesMonitorProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 8; trial++ {
		threshold := []float64{0.05, 0.5, 4, 40}[trial%4]
		minGap := rng.Intn(3)
		nq := 2 + rng.Intn(3)
		queries := make([]Series, nq)
		for qi := range queries {
			vals := make([]float64, 2+rng.Intn(10))
			for i := range vals {
				vals[i] = rng.NormFloat64()
			}
			queries[qi] = NewSeries(fmt.Sprintf("q%d", qi), 0, vals)
		}
		streams := map[string][]float64{}
		for si := 0; si < 6; si++ {
			vals := make([]float64, 200+rng.Intn(400))
			for i := range vals {
				// Mix of in-band noise and far excursions so the prefilter
				// sees live and dead stretches.
				vals[i] = rng.NormFloat64()
				if rng.Intn(16) == 0 {
					vals[i] += 40
				}
			}
			streams[fmt.Sprintf("s%d", si)] = vals
		}

		// Ground truth: one Monitor per stream over all queries.
		want := make([]hubMatchKey, 0, 64)
		for id, vals := range streams {
			m, err := NewMonitor(queries, Options{}, WithMatchThreshold(threshold), WithMinGap(minGap))
			if err != nil {
				t.Fatal(err)
			}
			emit, err := m.PushBatch(context.Background(), vals)
			if err != nil {
				t.Fatal(err)
			}
			fin, err := m.Flush()
			if err != nil {
				t.Fatal(err)
			}
			for _, mm := range append(emit, fin...) {
				want = append(want, hubMatchKey{id, mm.QueryID, mm.Start, mm.End, math.Float64bits(mm.Distance)})
			}
		}
		sortHubKeys(want)

		h := NewHub(Options{}, WithHubWorkers(3), WithMatchBuffer(1<<15))
		for _, q := range queries {
			if err := h.AddQuery(q.ID, q, WithMatchThreshold(threshold), WithMinGap(minGap)); err != nil {
				t.Fatal(err)
			}
		}
		for id := range streams {
			if err := h.AddStream(id); err != nil {
				t.Fatal(err)
			}
		}
		runErr := make(chan error, 1)
		go func() { runErr <- h.Run(context.Background()) }()
		var got []hubMatchKey
		var collectWG sync.WaitGroup
		collectWG.Add(1)
		go hubCollect(h, &got, &collectWG)
		var pushWG sync.WaitGroup
		for id, vals := range streams {
			pushWG.Add(1)
			go func(id string, vals []float64, seed int64) {
				defer pushWG.Done()
				hubPushAll(t, h, id, vals, rand.New(rand.NewSource(seed)))
			}(id, vals, rng.Int63())
		}
		pushWG.Wait()
		if err := h.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
		collectWG.Wait()
		if err := <-runErr; err != nil {
			t.Fatalf("Run: %v", err)
		}
		sortHubKeys(got)
		if len(got) != len(want) {
			t.Fatalf("trial %d: hub emitted %d matches, monitors %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: emission %d diverged: hub %+v, monitor %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestHubPrefilterAccounting: a stream of far-out-of-band values is
// skipped whole by the prefilter, and HubStats says so.
func TestHubPrefilterAccounting(t *testing.T) {
	stream := make([]float64, 4096)
	for i := range stream {
		stream[i] = 1e6 // dead for a unit-range query at any sane threshold
	}
	t.Run("prefilter", func(t *testing.T) {
		h := NewHub(Options{})
		if err := h.AddQuery("q", NewSeries("q", 0, []float64{0, 1, 0}), WithMatchThreshold(0.5)); err != nil {
			t.Fatal(err)
		}
		if err := h.AddStream("s"); err != nil {
			t.Fatal(err)
		}
		if err := h.PushBatch("s", stream); err != nil {
			t.Fatal(err)
		}
		if err := h.Flush(nil); err != nil {
			t.Fatal(err)
		}
		st := h.Stats()
		if st.Processed != int64(len(stream)) {
			t.Fatalf("processed %d, want %d", st.Processed, len(stream))
		}
		if st.Skipped != int64(len(stream)) {
			t.Fatalf("skipped %d of %d all-dead points", st.Skipped, len(stream))
		}
		if st.Appends != 0 {
			t.Fatalf("appends %d on an all-dead stream, want 0", st.Appends)
		}
		if len(st.PerQuery) != 1 || st.PerQuery[0].ID != "q" ||
			st.PerQuery[0].Appends+st.PerQuery[0].Skipped != int64(len(stream)) {
			t.Fatalf("per-query accounting off: %+v", st.PerQuery)
		}
	})
}

// TestHubPushNoAlloc is the fleet ingest acceptance check: with arenas
// pre-warmed and quiet in-band points, pushing a point through the hub
// allocates nothing — on the producer side or the worker side (the
// counter is process-wide).
func TestHubPushNoAlloc(t *testing.T) {
	h := NewHub(Options{}, WithHubWorkers(1), WithStreamBuffer(1<<16))
	if err := h.AddQuery("q", NewSeries("q", 0, []float64{0, 1, 0}), WithMatchThreshold(0.01)); err != nil {
		t.Fatal(err)
	}
	if err := h.AddStream("s"); err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- h.Run(context.Background()) }()
	// Warm up: buffer growth, first schedule, state attach all happen here.
	for i := 0; i < 500; i++ {
		if err := h.Push("s", 0.5); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if err := h.Push("s", 0.5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hub Push allocates %.1f objects per point after warm-up, want 0", allocs)
	}
	if err := h.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	for range h.Matches() {
	}
	if err := <-runErr; err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// waitGoroutines polls until the goroutine count settles back to the
// baseline (plus slack for the test runner).
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if after := runtime.NumGoroutine(); after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHubConcurrentChurn exercises the COW registry under -race:
// concurrent PushBatch across streams against AddQuery/RemoveQuery,
// CloseStream/AddStream and Stats churn, then a full Flush with a
// goroutine-leak check.
func TestHubConcurrentChurn(t *testing.T) {
	before := runtime.NumGoroutine()
	h := NewHub(Options{}, WithHubWorkers(4), WithMatchBuffer(1<<12), WithStreamBuffer(256))
	if err := h.AddQuery("base", NewSeries("base", 0, []float64{0, 1, 0}), WithMatchThreshold(0.3)); err != nil {
		t.Fatal(err)
	}
	const pushStreams = 6
	for i := 0; i < pushStreams; i++ {
		if err := h.AddStream(fmt.Sprintf("s%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	runErr := make(chan error, 1)
	go func() { runErr <- h.Run(context.Background()) }()
	var drainWG sync.WaitGroup
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		for range h.Matches() {
		}
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Pushers: steady batches on the stable streams.
	for i := 0; i < pushStreams; i++ {
		wg.Add(1)
		go func(id string, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			batch := make([]float64, 32)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for j := range batch {
					batch[j] = rng.NormFloat64()
				}
				if err := h.PushBatch(id, batch); err != nil && !errors.Is(err, ErrHubBackpressure) {
					t.Errorf("push %s: %v", id, err)
					return
				}
			}
		}(fmt.Sprintf("s%d", i), int64(i))
	}
	// Query churner.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("churn%d", i%3)
			if err := h.AddQuery(id, NewSeries(id, 0, []float64{1, 2, 1}), WithMatchThreshold(0.2)); err != nil {
				t.Errorf("AddQuery: %v", err)
				return
			}
			if err := h.RemoveQuery(id); err != nil {
				t.Errorf("RemoveQuery: %v", err)
				return
			}
		}
	}()
	// Stream churner: its own stream IDs, never the pushers'.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("ephemeral%d", i%4)
			if err := h.AddStream(id); err != nil {
				t.Errorf("AddStream: %v", err)
				return
			}
			if err := h.Push(id, 1); err != nil && !errors.Is(err, ErrHubBackpressure) {
				t.Errorf("push ephemeral: %v", err)
				return
			}
			if err := h.CloseStream(id); err != nil {
				t.Errorf("CloseStream: %v", err)
				return
			}
		}
	}()
	// Stats reader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := h.Stats()
			if st.Processed > st.Points {
				t.Errorf("processed %d > points %d", st.Processed, st.Points)
				return
			}
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := h.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	drainWG.Wait()
	if err := <-runErr; err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := h.Stats()
	if st.Streams != 0 {
		t.Fatalf("streams after Flush: %d, want 0", st.Streams)
	}
	if st.Processed != st.Points {
		t.Fatalf("flushed hub processed %d of %d accepted points", st.Processed, st.Points)
	}
	waitGoroutines(t, before)
}

// TestHubRunCancelNoLeak: cancelling Run tears the workers down without
// leaking goroutines, and the hub reports ErrHubClosed afterwards.
func TestHubRunCancelNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	h := NewHub(Options{}, WithHubWorkers(4))
	if err := h.AddQuery("q", NewSeries("q", 0, []float64{0, 1, 0}), WithMatchThreshold(0.3)); err != nil {
		t.Fatal(err)
	}
	if err := h.AddStream("s"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- h.Run(ctx) }()
	if err := h.PushBatch("s", make([]float64, 128)); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case err := <-runErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run: %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	if err := h.Push("s", 1); !errors.Is(err, ErrHubClosed) {
		t.Fatalf("push after cancelled Run: %v, want ErrHubClosed", err)
	}
	waitGoroutines(t, before)
}

// TestHubAddQueryValidation pins the public AddQuery contract: a
// threshold option is mandatory, best-only is rejected, and minGap must
// be non-negative.
func TestHubAddQueryValidation(t *testing.T) {
	h := NewHub(Options{})
	q := NewSeries("q", 0, []float64{1, 2})
	if err := h.AddQuery("q", q); err == nil {
		t.Fatal("AddQuery without WithMatchThreshold accepted")
	}
	if err := h.AddQuery("q", q, WithMatchThreshold(1), WithBestOnly()); err == nil {
		t.Fatal("AddQuery with WithBestOnly accepted")
	}
	if err := h.AddQuery("q", q, WithMatchThreshold(1), WithMinGap(-1)); err == nil {
		t.Fatal("AddQuery with negative WithMinGap accepted")
	}
	if err := h.AddQuery("q", q, WithMatchThreshold(math.Inf(1))); err == nil {
		t.Fatal("AddQuery with infinite threshold accepted")
	}
	if err := h.AddQuery("q", q, WithMatchThreshold(1)); err != nil {
		t.Fatal(err)
	}
	if err := h.AddQuery("q", q, WithMatchThreshold(1)); !IsErr(err, ErrDuplicateID) {
		t.Fatalf("duplicate query ID: %v, want ErrDuplicateID", err)
	}
}
