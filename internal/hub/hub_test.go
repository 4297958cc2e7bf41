package hub

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"sdtw/internal/dtw"
	"sdtw/internal/retrieve"
)

// drainAll collects every match until the Matches channel closes.
func drainAll(t *testing.T, h *Hub) []Match {
	t.Helper()
	var out []Match
	for m := range h.Matches() {
		out = append(out, m)
	}
	return out
}

// springMatches runs a plain SPRING over stream and returns the emitted
// matches (including the flush) offset by base — the hub's ground truth
// for one stream×query pair.
func springMatches(t *testing.T, q Query, streamID string, stream []float64, base int) []Match {
	t.Helper()
	sp, err := dtw.NewSpring(q.Values, dtw.SpringConfig{Threshold: q.Threshold, MinGap: q.MinGap})
	if err != nil {
		t.Fatal(err)
	}
	var out []Match
	for _, v := range stream {
		if m, ok := sp.Append(v); ok {
			out = append(out, Match{Stream: streamID, Query: q.ID, Start: m.Start + base, End: m.End + base, Distance: m.Distance})
		}
	}
	if m, ok := sp.Flush(); ok {
		out = append(out, Match{Stream: streamID, Query: q.ID, Start: m.Start + base, End: m.End + base, Distance: m.Distance})
	}
	return out
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		if a.Stream != b.Stream {
			return a.Stream < b.Stream
		}
		if a.Query != b.Query {
			return a.Query < b.Query
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End < b.End
	})
}

func matchesEqual(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Stream != b[i].Stream || a[i].Query != b[i].Query ||
			a[i].Start != b[i].Start || a[i].End != b[i].End ||
			math.Float64bits(a[i].Distance) != math.Float64bits(b[i].Distance) {
			return false
		}
	}
	return true
}

// TestHubSynchronousDrain: without Run, pushes buffer and Flush drains
// everything inline — the simplest correctness path.
func TestHubSynchronousDrain(t *testing.T) {
	t.Run("prefilter", func(t *testing.T) {
		h := New(Config{MatchBuffer: 1 << 14})
		q := Query{ID: "q", Values: []float64{0, 1, 0}, Threshold: 0.5}
		if err := h.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		if err := h.AddStream("s"); err != nil {
			t.Fatal(err)
		}
		stream := []float64{9, 0, 1, 0, 9, 9, 0, 1, 0}
		if err := h.PushBatch("s", stream); err != nil {
			t.Fatal(err)
		}
		if err := h.Flush(nil); err != nil {
			t.Fatal(err)
		}
		got := drainAll(t, h)
		want := springMatches(t, q, "s", stream, 0)
		sortMatches(got)
		sortMatches(want)
		if !matchesEqual(got, want) {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	})
}

// TestHubRunMultiStream: many streams × queries under Run with random
// data must reproduce per-pair SPRING output exactly.
func TestHubRunMultiStream(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := New(Config{Workers: 4, MatchBuffer: 1 << 16})
	queries := []Query{
		{ID: "a", Values: []float64{0, 1, 0}, Threshold: 0.4},
		{ID: "b", Values: []float64{2, 2, 2, 2}, Threshold: 1.0, MinGap: 2},
		{ID: "c", Values: []float64{-1, 1}, Threshold: 0.2},
	}
	for _, q := range queries {
		if err := h.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	streams := map[string][]float64{}
	for i := 0; i < 20; i++ {
		id := string(rune('A' + i))
		vals := make([]float64, 500+rng.Intn(500))
		for j := range vals {
			vals[j] = rng.NormFloat64() * 2
		}
		streams[id] = vals
		if err := h.AddStream(id); err != nil {
			t.Fatal(err)
		}
	}

	runErr := make(chan error, 1)
	go func() { runErr <- h.Run(context.Background()) }()

	var collected []Match
	var collectWG sync.WaitGroup
	collectWG.Add(1)
	go func() {
		defer collectWG.Done()
		for m := range h.Matches() {
			collected = append(collected, m)
		}
	}()

	var pushWG sync.WaitGroup
	for id, vals := range streams {
		pushWG.Add(1)
		go func(id string, vals []float64) {
			defer pushWG.Done()
			for off := 0; off < len(vals); {
				n := 1 + rand.Intn(64)
				if off+n > len(vals) {
					n = len(vals) - off
				}
				for {
					err := h.PushBatch(id, vals[off:off+n])
					if err == nil {
						break
					}
					if !errors.Is(err, ErrHubBackpressure) {
						panic(err)
					}
					time.Sleep(time.Millisecond)
				}
				off += n
			}
		}(id, vals)
	}
	pushWG.Wait()
	if err := h.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	collectWG.Wait()
	if err := <-runErr; err != nil {
		t.Fatalf("Run: %v", err)
	}

	var want []Match
	for id, vals := range streams {
		for _, q := range queries {
			want = append(want, springMatches(t, q, id, vals, 0)...)
		}
	}
	sortMatches(collected)
	sortMatches(want)
	if !matchesEqual(collected, want) {
		t.Fatalf("hub emitted %d matches, spring ground truth %d", len(collected), len(want))
	}

	st := h.Stats()
	var points int64
	for _, vals := range streams {
		points += int64(len(vals))
	}
	if st.Points != points || st.Processed != points {
		t.Fatalf("points=%d processed=%d, want both %d", st.Points, st.Processed, points)
	}
	if st.Appends+st.Skipped != points*int64(len(queries)) {
		t.Fatalf("appends %d + skipped %d != points×queries %d", st.Appends, st.Skipped, points*int64(len(queries)))
	}
	if st.Matches != int64(len(collected)) {
		t.Fatalf("stats matches %d, delivered %d", st.Matches, len(collected))
	}
}

// TestHubPerStreamOrder: matches for one stream must arrive in Monitor
// order (end position, then query addition order) even when pushed in
// many small batches.
func TestHubPerStreamOrder(t *testing.T) {
	h := New(Config{Workers: 2, MatchBuffer: 1 << 12})
	// Two queries matching at the same end positions.
	if err := h.AddQuery(Query{ID: "later", Values: []float64{0, 1, 0}, Threshold: 0.25}); err != nil {
		t.Fatal(err)
	}
	if err := h.RemoveQuery("later"); err != nil {
		t.Fatal(err)
	}
	if err := h.AddQuery(Query{ID: "first", Values: []float64{0, 1, 0}, Threshold: 0.25}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddQuery(Query{ID: "second", Values: []float64{0.1, 1, 0.1}, Threshold: 0.25}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddStream("s"); err != nil {
		t.Fatal(err)
	}
	go func() { _ = h.Run(nil) }()
	for i := 0; i < 50; i++ {
		for _, v := range []float64{9, 0, 1, 0} {
			for {
				err := h.Push("s", v)
				if err == nil {
					break
				}
				if !errors.Is(err, ErrHubBackpressure) {
					t.Errorf("push: %v", err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	if err := h.Flush(nil); err != nil {
		t.Fatal(err)
	}
	got := drainAll(t, h)
	if len(got) != 100 {
		t.Fatalf("got %d matches, want 100", len(got))
	}
	for i := 0; i < len(got); i += 2 {
		if got[i].End != got[i+1].End {
			t.Fatalf("pair %d ends %d/%d, want equal", i/2, got[i].End, got[i+1].End)
		}
		if i > 0 && got[i].End <= got[i-1].End {
			t.Fatalf("ends not increasing at pair %d", i/2)
		}
		if got[i].Query != "first" || got[i+1].Query != "second" {
			t.Fatalf("pair %d order %q,%q; want first,second (query addition order)", i/2, got[i].Query, got[i+1].Query)
		}
	}
}

// TestHubOrderAdditionBeforeStart: two matches ending at one position
// arrive in query addition order even when the later query's match
// starts first — the order a Monitor sorts its emissions in.
func TestHubOrderAdditionBeforeStart(t *testing.T) {
	h := New(Config{})
	for _, q := range []Query{
		{ID: "short", Values: []float64{1, 0}, Threshold: 0.01},
		{ID: "long", Values: []float64{0, 1, 0}, Threshold: 0.01},
	} {
		if err := h.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.AddStream("s"); err != nil {
		t.Fatal(err)
	}
	if err := h.PushBatch("s", []float64{9, 0, 1, 0, 9}); err != nil {
		t.Fatal(err)
	}
	if err := h.Flush(nil); err != nil {
		t.Fatal(err)
	}
	got := drainAll(t, h)
	if len(got) != 2 || got[0].Query != "short" || got[1].Query != "long" ||
		got[0].End != 3 || got[1].End != 3 || got[0].Start != 2 || got[1].Start != 1 {
		t.Fatalf("got %+v, want short [2,3] then long [1,3]", got)
	}
}

// TestHubMidStreamAddQuery: a query added mid-stream starts matching at
// its addition point and emits absolute stream positions.
func TestHubMidStreamAddQuery(t *testing.T) {
	h := New(Config{MatchBuffer: 1 << 10})
	if err := h.AddStream("s"); err != nil {
		t.Fatal(err)
	}
	prefix := []float64{0, 1, 0, 9, 9} // would match q, but q isn't registered yet
	if err := h.PushBatch("s", prefix); err != nil {
		t.Fatal(err)
	}
	// Drain the prefix inline (no Run): CloseStream would finalize, so
	// instead force processing by flushing later; the hub processes
	// buffered points before attaching the new query only if they were
	// serviced first. Use Run briefly to drain.
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- h.Run(ctx) }()
	waitProcessed(t, h, 5)
	q := Query{ID: "q", Values: []float64{0, 1, 0}, Threshold: 0.25}
	if err := h.AddQuery(q); err != nil {
		t.Fatal(err)
	}
	suffix := []float64{9, 0, 1, 0, 9}
	if err := h.PushBatch("s", suffix); err != nil {
		t.Fatal(err)
	}
	if err := h.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := drainAll(t, h)
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := springMatches(t, q, "s", suffix, len(prefix))
	sortMatches(got)
	sortMatches(want)
	if !matchesEqual(got, want) {
		t.Fatalf("got %+v, want %+v (absolute positions, matching from addition point)", got, want)
	}
}

func waitProcessed(t *testing.T, h *Hub, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for h.Stats().Processed < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d processed points (have %d)", n, h.Stats().Processed)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHubBackpressure: a full pending buffer reports ErrHubBackpressure
// without consuming anything, and accounts the rejection.
func TestHubBackpressure(t *testing.T) {
	h := New(Config{StreamBuffer: 8})
	if err := h.AddStream("s"); err != nil {
		t.Fatal(err)
	}
	if err := h.PushBatch("s", make([]float64, 8)); err != nil {
		t.Fatal(err)
	}
	err := h.Push("s", 1)
	if !errors.Is(err, ErrHubBackpressure) {
		t.Fatalf("push to full buffer: %v, want ErrHubBackpressure", err)
	}
	if err := h.PushBatch("s", nil); err != nil {
		t.Fatalf("empty batch must always succeed: %v", err)
	}
	st := h.Stats()
	if st.Rejected != 1 {
		t.Fatalf("rejected %d, want 1", st.Rejected)
	}
	if st.Points != 8 {
		t.Fatalf("points %d, want 8 (rejected batch must consume nothing)", st.Points)
	}
}

// TestHubErrors pins every sentinel path of the admin and push surface.
func TestHubErrors(t *testing.T) {
	h := New(Config{MatchBuffer: 64})
	if err := h.AddQuery(Query{ID: "", Values: []float64{1}, Threshold: 1}); err == nil {
		t.Fatal("empty query ID accepted")
	}
	if err := h.AddQuery(Query{ID: "q", Values: nil, Threshold: 1}); err == nil {
		t.Fatal("empty query values accepted")
	}
	if err := h.AddQuery(Query{ID: "q", Values: []float64{1}, Threshold: math.Inf(1)}); err == nil {
		t.Fatal("infinite threshold accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := h.AddQuery(Query{ID: "q", Values: []float64{1, v}, Threshold: 1}); !errors.Is(err, retrieve.ErrNonFinite) {
			t.Fatalf("query value %v: %v, want ErrNonFinite", v, err)
		}
	}
	if err := h.AddQuery(Query{ID: "q", Values: []float64{1}, Threshold: 1}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddQuery(Query{ID: "q", Values: []float64{1}, Threshold: 1}); !errors.Is(err, retrieve.ErrDuplicateID) {
		t.Fatalf("duplicate query: %v, want ErrDuplicateID", err)
	}
	if err := h.RemoveQuery("nope"); !errors.Is(err, retrieve.ErrUnknownID) {
		t.Fatalf("remove unknown query: %v, want ErrUnknownID", err)
	}
	if err := h.AddStream("s"); err != nil {
		t.Fatal(err)
	}
	if err := h.AddStream("s"); !errors.Is(err, retrieve.ErrDuplicateID) {
		t.Fatalf("duplicate stream: %v, want ErrDuplicateID", err)
	}
	if err := h.Push("ghost", 1); !errors.Is(err, ErrUnknownStream) {
		t.Fatalf("push to unknown stream: %v, want ErrUnknownStream", err)
	}
	if err := h.CloseStream("ghost"); !errors.Is(err, ErrUnknownStream) {
		t.Fatalf("close unknown stream: %v, want ErrUnknownStream", err)
	}
	if err := h.CloseStream("s"); err != nil {
		t.Fatal(err)
	}
	if err := h.Push("s", 1); !errors.Is(err, ErrUnknownStream) {
		t.Fatalf("push to closed stream: %v, want ErrUnknownStream", err)
	}
	if err := h.Flush(nil); err != nil {
		t.Fatal(err)
	}
	if err := h.Flush(nil); !errors.Is(err, ErrHubClosed) {
		t.Fatalf("double Flush: %v, want ErrHubClosed", err)
	}
	if err := h.Push("s", 1); !errors.Is(err, ErrHubClosed) {
		t.Fatalf("push after Flush: %v, want ErrHubClosed", err)
	}
	if err := h.AddStream("t"); !errors.Is(err, ErrHubClosed) {
		t.Fatalf("AddStream after Flush: %v, want ErrHubClosed", err)
	}
	if err := h.AddQuery(Query{ID: "r", Values: []float64{1}, Threshold: 1}); !errors.Is(err, ErrHubClosed) {
		t.Fatalf("AddQuery after Flush: %v, want ErrHubClosed", err)
	}
	if err := h.RemoveQuery("q"); !errors.Is(err, ErrHubClosed) {
		t.Fatalf("RemoveQuery after Flush: %v, want ErrHubClosed", err)
	}
	if err := h.CloseStream("s"); !errors.Is(err, ErrHubClosed) {
		t.Fatalf("CloseStream after Flush: %v, want ErrHubClosed", err)
	}
}

// TestHubCloseStreamRecyclesState: closing a stream returns its SPRING
// state to the arenas; the next stream reuses it (free-list length is
// observable through the arena).
func TestHubCloseStreamRecyclesState(t *testing.T) {
	h := New(Config{MatchBuffer: 256})
	if err := h.AddQuery(Query{ID: "q", Values: []float64{0, 1}, Threshold: 0.5}); err != nil {
		t.Fatal(err)
	}
	snap := h.state.Load()
	q := snap.queries[0]
	if err := h.AddStream("s1"); err != nil {
		t.Fatal(err)
	}
	q.arena.mu.Lock()
	freeAfterAdd := len(q.arena.free)
	q.arena.mu.Unlock()
	if freeAfterAdd != slabStates-1 {
		t.Fatalf("free after first AddStream: %d, want %d (one slab minus one state)", freeAfterAdd, slabStates-1)
	}
	if err := h.PushBatch("s1", []float64{0, 1, 5}); err != nil {
		t.Fatal(err)
	}
	if err := h.CloseStream("s1"); err != nil {
		t.Fatal(err)
	}
	q.arena.mu.Lock()
	freeAfterClose := len(q.arena.free)
	q.arena.mu.Unlock()
	if freeAfterClose != slabStates {
		t.Fatalf("free after CloseStream: %d, want %d (state recycled)", freeAfterClose, slabStates)
	}
	// The close drained the buffered points and flushed the pending match.
	if err := h.Flush(nil); err != nil {
		t.Fatal(err)
	}
	got := drainAll(t, h)
	if len(got) != 1 || got[0].Start != 0 || got[0].End != 1 {
		t.Fatalf("close-stream drain: got %+v, want the single {0 1} match", got)
	}
	// 64 streams exhaust exactly one slab, stream 65 grows a second.
	h2 := New(Config{})
	if err := h2.AddQuery(Query{ID: "q", Values: []float64{0, 1}, Threshold: 0.5}); err != nil {
		t.Fatal(err)
	}
	q2 := h2.state.Load().queries[0]
	for i := 0; i < slabStates; i++ {
		if err := h2.AddStream(string(rune('a'+i%26)) + string(rune('a'+i/26))); err != nil {
			t.Fatal(err)
		}
	}
	q2.arena.mu.Lock()
	free2 := len(q2.arena.free)
	q2.arena.mu.Unlock()
	if free2 != 0 {
		t.Fatalf("after %d streams one slab should be exhausted; free=%d", slabStates, free2)
	}
}

// TestHubRunCancellation: cancelling Run's context returns ctx.Err(),
// closes the hub to new pushes, and a later Flush still drains leftovers
// inline without leaking goroutines.
func TestHubRunCancellation(t *testing.T) {
	h := New(Config{Workers: 2, MatchBuffer: 1 << 12})
	if err := h.AddQuery(Query{ID: "q", Values: []float64{0, 1, 0}, Threshold: 0.25}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddStream("s"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- h.Run(ctx) }()
	if err := h.PushBatch("s", []float64{9, 0, 1, 0, 9}); err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, h, 5)
	cancel()
	select {
	case err := <-runErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run after cancel: %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if err := h.Push("s", 1); !errors.Is(err, ErrHubClosed) {
		t.Fatalf("push after cancelled Run: %v, want ErrHubClosed", err)
	}
	// Flush still drains (inline — the workers are gone).
	if err := h.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := drainAll(t, h)
	if len(got) != 1 {
		t.Fatalf("got %d matches, want the 1 processed before cancellation", len(got))
	}
}

// TestHubFlushCancellation: a cancelled Flush returns ctx.Err() and
// leaves the hub closed.
func TestHubFlushCancellation(t *testing.T) {
	h := New(Config{MatchBuffer: 1}) // tiny: deliver blocks with no consumer
	if err := h.AddQuery(Query{ID: "q", Values: []float64{0}, Threshold: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddStream("s"); err != nil {
		t.Fatal(err)
	}
	// Every point matches; with MatchBuffer 1 and no consumer, the inline
	// drain blocks on delivery until ctx cancels.
	if err := h.PushBatch("s", make([]float64, 64)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := h.Flush(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked Flush: %v, want DeadlineExceeded", err)
	}
	if err := h.Push("s", 1); !errors.Is(err, ErrHubClosed) {
		t.Fatalf("push after failed Flush: %v, want ErrHubClosed", err)
	}
}

// TestHubPushBeforeRun: points pushed before Run starts are processed
// once it does — and are drained by Flush even if Run never starts.
func TestHubPushBeforeRun(t *testing.T) {
	h := New(Config{MatchBuffer: 256})
	if err := h.AddQuery(Query{ID: "q", Values: []float64{0, 1, 0}, Threshold: 0.25}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddStream("s"); err != nil {
		t.Fatal(err)
	}
	if err := h.PushBatch("s", []float64{9, 0, 1, 0, 9}); err != nil {
		t.Fatal(err)
	}
	// No Run at all: Flush alone must drain the scheduled-but-unserviced
	// stream.
	if err := h.Flush(nil); err != nil {
		t.Fatal(err)
	}
	got := drainAll(t, h)
	if len(got) != 1 || got[0].Start != 1 || got[0].End != 3 {
		t.Fatalf("got %+v, want the single {1 3} match", got)
	}
}
