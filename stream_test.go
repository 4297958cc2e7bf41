package sdtw

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"sdtw/internal/dtw"
)

// streamWorkload concatenates dataset series into one long stream.
func streamWorkload(tb testing.TB, name string, seriesPerClass, points int) (query, stream []float64) {
	tb.Helper()
	d, err := DatasetByName(name, DatasetConfig{Seed: 17, SeriesPerClass: seriesPerClass})
	if err != nil {
		tb.Fatal(err)
	}
	query = d.Series[0].Values
	for i := 1; len(stream) < points; i = i%(d.Len()-1) + 1 {
		stream = append(stream, d.Series[i].Values...)
	}
	return query, stream[:points]
}

// TestMonitorMatchesOfflineSubsequence is the streaming-equivalence
// property: a Monitor fed point-by-point over Gun and Trace material must
// report, at Flush, the same best match (start, end, distance) as the
// offline Subsequence dynamic program — bit-identical, not within-epsilon.
func TestMonitorMatchesOfflineSubsequence(t *testing.T) {
	for _, name := range []string{"Gun", "Trace"} {
		query, stream := streamWorkload(t, name, 4, 1200)
		want, err := dtw.Subsequence(query, stream)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMonitor([]Series{NewSeries("q", 0, query)}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for _, v := range stream {
			if matches, err := m.Push(ctx, v); err != nil {
				t.Fatal(err)
			} else if len(matches) != 0 {
				t.Fatalf("%s: best-only monitor emitted mid-stream: %+v", name, matches)
			}
		}
		matches, err := m.Flush()
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) != 1 {
			t.Fatalf("%s: Flush returned %d matches, want 1", name, len(matches))
		}
		got := matches[0]
		if got.Start != want.Start || got.End != want.End || got.Distance != want.Distance {
			t.Fatalf("%s: Monitor [%d,%d] %v, offline [%d,%d] %v",
				name, got.Start, got.End, got.Distance, want.Start, want.End, want.Distance)
		}
		if got.Query != 0 || got.QueryID != "q" {
			t.Fatalf("%s: match identity %+v", name, got)
		}
		st := m.Stats()
		if st.Points != int64(len(stream)) || st.Cells != int64(len(stream)*len(query)) {
			t.Fatalf("%s: stats points=%d cells=%d, want %d and %d",
				name, st.Points, st.Cells, len(stream), len(stream)*len(query))
		}
	}
}

// TestMonitorAcceptance10k is the acceptance workload verbatim: a
// 10k-point stream against a 150-point query, pushed in mixed batch
// sizes, must match the offline result bit for bit.
func TestMonitorAcceptance10k(t *testing.T) {
	query, stream := streamWorkload(t, "Gun", 40, 10_000)
	if len(query) != 150 {
		t.Fatalf("Gun query length %d, want 150", len(query))
	}
	want, err := dtw.Subsequence(query, stream)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMonitor([]Series{NewSeries("gun-0", 0, query)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for off, chunk := 0, 1; off < len(stream); chunk = chunk*2 + 1 {
		end := off + chunk // exercise many batch sizes, including 1
		if end > len(stream) {
			end = len(stream)
		}
		if _, err := m.PushBatch(ctx, stream[off:end]); err != nil {
			t.Fatal(err)
		}
		off = end
	}
	matches, err := m.Flush()
	if err != nil || len(matches) != 1 {
		t.Fatalf("Flush = %v, %v", matches, err)
	}
	got := matches[0]
	if got.Start != want.Start || got.End != want.End || got.Distance != want.Distance {
		t.Fatalf("Monitor [%d,%d] %v, offline [%d,%d] %v",
			got.Start, got.End, got.Distance, want.Start, want.End, want.Distance)
	}
}

// monitorOneShot is the one-shot use of a Monitor that replaced the root
// Subsequence helper: push the whole stream, take the best-only Flush.
func monitorOneShot(t *testing.T, query, stream []float64) []Match {
	t.Helper()
	m, err := NewMonitor([]Series{{Values: query}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.PushBatch(context.Background(), stream); err != nil {
		t.Fatal(err)
	}
	matches, err := m.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestSubsequenceWrapperBitIdentical pins the one-shot contract: a
// Monitor fed the whole stream in one batch answers bit-identically to
// the offline dynamic program.
func TestSubsequenceWrapperBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(20)
		m := n + rng.Intn(200)
		q := make([]float64, n)
		s := make([]float64, m)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		for j := range s {
			s[j] = rng.NormFloat64()
		}
		got := monitorOneShot(t, q, s)
		want, err := dtw.Subsequence(q, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].Start != want.Start || got[0].End != want.End || got[0].Distance != want.Distance {
			t.Fatalf("trial %d: monitor %+v, offline %+v", trial, got, want)
		}
	}
	// A NaN-poisoned query never compares below +Inf, so no best match
	// exists: the monitor must report none, not panic.
	if got := monitorOneShot(t, []float64{1, math.NaN()}, []float64{1, 2, 3}); len(got) != 0 {
		t.Fatalf("NaN query: got %+v, want no match", got)
	}
}

func TestSubsequencePublicAPI(t *testing.T) {
	eng := NewEngine(Options{})
	q := []float64{0, 1, 0}
	s := []float64{9, 9, 0, 1, 0, 9, 9}
	m, err := eng.Subsequence(q, s)
	if err != nil {
		t.Fatal(err)
	}
	if m.Distance != 0 || m.Start != 2 || m.End != 4 {
		t.Fatalf("match = %+v, want [2,4] at 0", m)
	}
	if _, err := eng.Subsequence(nil, s); err == nil {
		t.Fatal("empty query accepted")
	}
}

// TestEngineSubsequence checks the pooled-workspace engine path returns
// the same answer as the one-shot helper, across repeated mixed-size
// calls that exercise workspace reuse.
func TestEngineSubsequence(t *testing.T) {
	eng := NewEngine(DefaultOptions())
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(15)
		m := n + rng.Intn(120)
		q := make([]float64, n)
		s := make([]float64, m)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		for j := range s {
			s[j] = rng.NormFloat64()
		}
		got, err := eng.Subsequence(q, s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := dtw.Subsequence(q, s)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: engine %+v, offline %+v", trial, got, want)
		}
	}
	if _, err := eng.Subsequence(nil, []float64{1}); !errors.Is(err, ErrEmptySeries) {
		t.Fatalf("empty query: got %v, want ErrEmptySeries", err)
	}
}

// TestMonitorMultiQueryFanOut: a multi-query monitor must report, per
// query, exactly the offline answer — independent of the worker count.
func TestMonitorMultiQueryFanOut(t *testing.T) {
	d := TraceDataset(DatasetConfig{Seed: 19, SeriesPerClass: 3})
	queries := d.Series[:6]
	_, stream := streamWorkload(t, "Trace", 3, 2000)
	for _, workers := range []int{1, 4} {
		m, err := NewMonitor(queries, Options{}, WithMonitorWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.PushBatch(context.Background(), stream); err != nil {
			t.Fatal(err)
		}
		matches, err := m.Flush()
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) != len(queries) {
			t.Fatalf("workers=%d: %d best matches, want one per query", workers, len(matches))
		}
		for _, got := range matches {
			want, err := dtw.Subsequence(queries[got.Query].Values, stream)
			if err != nil {
				t.Fatal(err)
			}
			if got.Start != want.Start || got.End != want.End || got.Distance != want.Distance {
				t.Fatalf("workers=%d query %d: [%d,%d] %v, offline [%d,%d] %v",
					workers, got.Query, got.Start, got.End, got.Distance, want.Start, want.End, want.Distance)
			}
			if got.QueryID != queries[got.Query].ID {
				t.Fatalf("match %+v does not carry its query's ID %q", got, queries[got.Query].ID)
			}
		}
	}
}

// TestMonitorThresholdEmission plants warped occurrences of a pattern in
// a hostile stream and checks streaming emission: every plant reported
// with sensible bounds, matches non-overlapping, MinGap honoured, and
// the match count visible in Stats.
func TestMonitorThresholdEmission(t *testing.T) {
	pattern := []float64{0, 1, 3, 1, 0}
	warped := []float64{0, 1, 1, 3, 1, 0} // time-warped plant, still distance 0
	var stream []float64
	filler := func(k int) {
		for i := 0; i < k; i++ {
			stream = append(stream, 9)
		}
	}
	filler(10)
	plant1 := len(stream)
	stream = append(stream, pattern...)
	filler(20)
	plant2 := len(stream)
	stream = append(stream, warped...)
	filler(10)

	m, err := NewMonitor([]Series{NewSeries("p", 0, pattern)}, Options{}, WithMatchThreshold(0.25))
	if err != nil {
		t.Fatal(err)
	}
	var got []Match
	for _, v := range stream {
		out, err := m.Push(context.Background(), v)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, out...)
	}
	final, err := m.Flush()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, final...)
	if len(got) != 2 {
		t.Fatalf("emitted %+v, want both plants", got)
	}
	if got[0].Start != plant1 || got[0].End != plant1+len(pattern)-1 || got[0].Distance != 0 {
		t.Fatalf("first match %+v, want [%d,%d] at 0", got[0], plant1, plant1+len(pattern)-1)
	}
	if got[1].Start != plant2 || got[1].End != plant2+len(warped)-1 || got[1].Distance != 0 {
		t.Fatalf("second match %+v, want [%d,%d] at 0", got[1], plant2, plant2+len(warped)-1)
	}
	if got[1].Start <= got[0].End {
		t.Fatalf("overlapping matches %+v", got)
	}
	if st := m.Stats(); st.Matches != 2 || st.PerQuery[0].Matches != 2 {
		t.Fatalf("stats lost matches: %+v", st)
	}

	// A MinGap wider than the spacing suppresses the second plant.
	m2, err := NewMonitor([]Series{NewSeries("p", 0, pattern)}, Options{},
		WithMatchThreshold(0.25), WithMinGap(len(stream)))
	if err != nil {
		t.Fatal(err)
	}
	out, err := m2.PushBatch(context.Background(), stream)
	if err != nil {
		t.Fatal(err)
	}
	if final, err = m2.Flush(); err != nil {
		t.Fatal(err)
	}
	if total := len(out) + len(final); total != 1 {
		t.Fatalf("MinGap monitor emitted %d matches, want 1", total)
	}
}

// TestMonitorBestOnlyThresholdFilter: WithBestOnly + WithMatchThreshold
// reports the best match only when it is within the threshold.
func TestMonitorBestOnlyThresholdFilter(t *testing.T) {
	query := []float64{0, 5, 0}
	stream := []float64{9, 9, 9, 9, 9, 9}
	m, err := NewMonitor([]Series{{Values: query}}, Options{}, WithBestOnly(), WithMatchThreshold(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.PushBatch(context.Background(), stream); err != nil {
		t.Fatal(err)
	}
	matches, err := m.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("out-of-threshold best reported: %+v", matches)
	}
}

// TestMonitorValidationTable is the uniform-validation property for the
// streaming surface: every boundary reports the package sentinel via
// errors.Is, matching the Search conventions.
func TestMonitorValidationTable(t *testing.T) {
	valid := []Series{NewSeries("q", 0, []float64{1, 2, 1})}
	cases := []struct {
		name    string
		queries []Series
		mopts   []MonitorOption
		wantErr error // nil means success; "any" means any error
	}{
		{"no queries", nil, nil, ErrEmptyCollection},
		{"empty query", []Series{{ID: "q"}}, nil, ErrEmptySeries},
		{"empty query among valid", append([]Series{valid[0]}, Series{ID: "r"}), nil, ErrEmptySeries},
		{"duplicate IDs", []Series{valid[0], NewSeries("q", 1, []float64{3, 4})}, nil, ErrDuplicateID},
		{"NaN threshold", valid, []MonitorOption{WithMatchThreshold(math.NaN())}, errors.New("any")},
		{"negative threshold", valid, []MonitorOption{WithMatchThreshold(-1)}, errors.New("any")},
		{"negative gap", valid, []MonitorOption{WithMinGap(-1)}, errors.New("any")},
		{"ok default", valid, nil, nil},
		{"ok threshold", valid, []MonitorOption{WithMatchThreshold(2), WithMinGap(3), WithMonitorWorkers(2)}, nil},
	}
	for _, tc := range cases {
		_, err := NewMonitor(tc.queries, Options{}, tc.mopts...)
		switch {
		case tc.wantErr == nil:
			if err != nil {
				t.Fatalf("%s: unexpected error %v", tc.name, err)
			}
		case tc.wantErr.Error() == "any":
			if err == nil {
				t.Fatalf("%s: bad input accepted", tc.name)
			}
		default:
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("%s: got %v, want %v", tc.name, err, tc.wantErr)
			}
		}
	}

	// The one-shot helpers wrap the same sentinels.
	eng := NewEngine(Options{})
	if _, err := eng.Subsequence(nil, []float64{1}); !IsErr(err, ErrEmptySeries) {
		t.Fatalf("Subsequence empty query: got %v", err)
	}
	if _, err := eng.Subsequence([]float64{1}, nil); !IsErr(err, ErrEmptySeries) {
		t.Fatalf("Subsequence empty stream: got %v", err)
	}
	if _, err := DTW(nil, []float64{1}); !IsErr(err, ErrEmptySeries) {
		t.Fatalf("DTW empty input: got %v", err)
	}
	if _, _, err := DTWPath(nil, []float64{1}); !IsErr(err, ErrEmptySeries) {
		t.Fatalf("DTWPath empty input: got %v", err)
	}
	if _, err := SakoeChibaDTW(nil, []float64{1}, 0.1); !IsErr(err, ErrEmptySeries) {
		t.Fatalf("SakoeChibaDTW empty input: got %v", err)
	}

	// A flushed monitor rejects every further call with ErrMonitorClosed.
	m, err := NewMonitor(valid, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Push(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Push(context.Background(), 1); !IsErr(err, ErrMonitorClosed) {
		t.Fatalf("Push after Flush: got %v, want ErrMonitorClosed", err)
	}
	if _, err := m.PushBatch(context.Background(), []float64{1, 2}); !IsErr(err, ErrMonitorClosed) {
		t.Fatalf("PushBatch after Flush: got %v, want ErrMonitorClosed", err)
	}
	if _, err := m.Flush(); !IsErr(err, ErrMonitorClosed) {
		t.Fatalf("second Flush: got %v, want ErrMonitorClosed", err)
	}
	// Stats keeps answering after close.
	if st := m.Stats(); st.Points != 1 {
		t.Fatalf("post-Flush stats: %+v", st)
	}
}

// monitorGrid builds the 32 × 128 multi-query shape (32 Trace series of
// length 128) the fan-out threshold was measured on.
func monitorGrid(tb testing.TB) []Series {
	tb.Helper()
	d, err := DatasetByName("Trace", DatasetConfig{Seed: 17, SeriesPerClass: 8, Length: 128})
	if err != nil {
		tb.Fatal(err)
	}
	return d.Series
}

// TestMonitorPushNoAlloc is the O(|q|)-memory acceptance check: after
// warm-up, pushing a point allocates nothing — through a 150-point-query
// monitor, and through a 32 × 128 multi-query one whose worker pool must
// stay out of a one-point push (it used to cost 7 objects a point).
func TestMonitorPushNoAlloc(t *testing.T) {
	query, stream := streamWorkload(t, "Gun", 4, 2000)
	grid := monitorGrid(t)
	cases := []struct {
		name    string
		queries []Series
		mopts   []MonitorOption
	}{
		{"1x150", []Series{NewSeries("q", 0, query)}, nil},
		{"32x128 default workers", grid, nil},
		{"32x128 four workers", grid, []MonitorOption{WithMonitorWorkers(4)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewMonitor(tc.queries, Options{}, tc.mopts...)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for _, v := range stream[:500] { // warm-up
				if _, err := m.Push(ctx, v); err != nil {
					t.Fatal(err)
				}
			}
			i := 500
			allocs := testing.AllocsPerRun(1000, func() {
				if _, err := m.Push(ctx, stream[i%len(stream)]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs != 0 {
				t.Fatalf("Push allocates %.1f objects per point after warm-up, want 0", allocs)
			}
		})
	}
}

// TestMonitorCancellation: a context cancelled before any work leaves the
// monitor reusable; one cancelled mid-batch stops the stream promptly
// with context.Canceled, closes the monitor, and leaks no goroutines.
func TestMonitorCancellation(t *testing.T) {
	// Pre-cancelled: no state consumed, monitor stays open.
	m, err := NewMonitor([]Series{NewSeries("q", 0, []float64{1, 2, 3})}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Push(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Push: got %v, want context.Canceled", err)
	}
	if st := m.Stats(); st.Points != 0 {
		t.Fatalf("pre-cancelled Push consumed %d points", st.Points)
	}
	if _, err := m.Push(context.Background(), 1); err != nil {
		t.Fatalf("monitor unusable after pre-cancelled push: %v", err)
	}

	// Mid-batch: a long stream against several long queries, cancelled
	// mid-flight from outside.
	rng := rand.New(rand.NewSource(41))
	queries := make([]Series, 4)
	for i := range queries {
		q := make([]float64, 1000)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		queries[i] = NewSeries("", i, q)
	}
	stream := make([]float64, 400_000)
	for i := range stream {
		stream[i] = rng.NormFloat64()
	}
	mon, err := NewMonitor(queries, Options{}, WithMonitorWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel = context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := mon.PushBatch(ctx, stream)
		done <- err
	}()
	time.Sleep(15 * time.Millisecond)
	cancel()
	select {
	case err = <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-batch cancel: got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled PushBatch did not return within 5s")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancelled PushBatch took %v to return", elapsed)
	}
	// The monitor is closed: its queries may disagree on the position.
	if _, err := mon.Push(context.Background(), 1); !errors.Is(err, ErrMonitorClosed) {
		t.Fatalf("Push after mid-batch cancel: got %v, want ErrMonitorClosed", err)
	}
	// All fan-out goroutines must have drained.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if after := runtime.NumGoroutine(); after <= before+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancellation", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMonitorStatsRace exercises the documented concurrency contract
// under -race: one goroutine pushes, another reads Stats, and Flush
// leaves no goroutines behind.
func TestMonitorStatsRace(t *testing.T) {
	query, stream := streamWorkload(t, "Gun", 8, 4000)
	m, err := NewMonitor([]Series{NewSeries("q", 0, query), NewSeries("r", 1, stream[:100])},
		Options{}, WithMatchThreshold(1e9), WithMonitorWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = m.Stats()
			}
		}
	}()
	ctx := context.Background()
	for off := 0; off < len(stream); off += 256 {
		end := off + 256
		if end > len(stream) {
			end = len(stream)
		}
		if _, err := m.PushBatch(ctx, stream[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if st := m.Stats(); st.Points != int64(len(stream)) {
		t.Fatalf("stats after race run: %+v", st)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if after := runtime.NumGoroutine(); after <= before+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Flush: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMonitorNilContext regression-pins nil-context tolerance on the
// streaming surface. Push and PushBatch used to call ctx.Err() directly
// and panic on a nil context, while Index.Search has always tolerated
// one — a server handing its (possibly nil) request context straight to
// the monitor tripped on the asymmetry.
func TestMonitorNilContext(t *testing.T) {
	query, stream := streamWorkload(t, "Gun", 2, 400)
	m, err := NewMonitor([]Series{NewSeries("q", 0, query)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range stream[:200] {
		if _, err := m.Push(nil, v); err != nil { //nolint:staticcheck // nil ctx tolerance is the contract under test
			t.Fatalf("nil-ctx Push: %v", err)
		}
	}
	if _, err := m.PushBatch(nil, stream[200:]); err != nil { //nolint:staticcheck
		t.Fatalf("nil-ctx PushBatch: %v", err)
	}
	matches, err := m.Flush()
	if err != nil {
		t.Fatalf("Flush after nil-ctx pushes: %v", err)
	}
	if len(matches) != 1 {
		t.Fatalf("Flush returned %d matches, want 1", len(matches))
	}

	// The retrieval surfaces tolerate nil the same way — pin all three so
	// the two halves of the API cannot drift apart again.
	d := GunDataset(DatasetConfig{Seed: 3, SeriesPerClass: 3})
	ix, err := NewIndex(d.Series, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Search(nil, d.Series[0], WithK(1)); err != nil { //nolint:staticcheck
		t.Fatalf("nil-ctx Index.Search: %v", err)
	}
	six, err := NewShardedIndex(d.Series, 2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := six.Search(nil, d.Series[0], WithK(1)); err != nil { //nolint:staticcheck
		t.Fatalf("nil-ctx ShardedIndex.Search: %v", err)
	}
}

// TestMonitorTerminalState regression-pins the monitor's terminal-state
// contract, which the Hub relies on when recycling stream state: Flush
// closes the monitor exactly once, and every subsequent Push, PushBatch
// or Flush — by any path into the closed state, including a mid-batch
// cancellation — reports ErrMonitorClosed while Stats stays readable.
func TestMonitorTerminalState(t *testing.T) {
	query, stream := streamWorkload(t, "Gun", 2, 300)

	t.Run("flushed", func(t *testing.T) {
		m, err := NewMonitor([]Series{NewSeries("q", 0, query)}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.PushBatch(context.Background(), stream); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Flush(); err != nil {
			t.Fatalf("first Flush: %v", err)
		}
		if _, err := m.Flush(); !IsErr(err, ErrMonitorClosed) {
			t.Fatalf("double Flush: %v, want ErrMonitorClosed", err)
		}
		if _, err := m.Push(context.Background(), 1); !IsErr(err, ErrMonitorClosed) {
			t.Fatalf("Push after Flush: %v, want ErrMonitorClosed", err)
		}
		if _, err := m.PushBatch(context.Background(), stream[:4]); !IsErr(err, ErrMonitorClosed) {
			t.Fatalf("PushBatch after Flush: %v, want ErrMonitorClosed", err)
		}
		// Stats survives the close and still reflects the consumed stream.
		if st := m.Stats(); st.Points != int64(len(stream)) {
			t.Fatalf("post-Flush Stats.Points = %d, want %d", st.Points, len(stream))
		}
	})

	t.Run("cancelled mid-batch", func(t *testing.T) {
		queries := []Series{NewSeries("a", 0, query), NewSeries("b", 0, query)}
		m, err := NewMonitor(queries, Options{}, WithMonitorWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		// A context that survives push's entry check and cancels at the
		// first in-batch poll: deterministic mid-batch cancellation (a
		// cancellation before any work leaves the monitor reusable, by
		// contract).
		ctx := &cancelAfterCtx{Context: context.Background(), after: 1}
		big := make([]float64, 4096)
		if _, err := m.PushBatch(ctx, big); !IsErr(err, context.Canceled) {
			t.Fatalf("cancelled PushBatch: %v, want context.Canceled", err)
		}
		if _, err := m.Flush(); !IsErr(err, ErrMonitorClosed) {
			t.Fatalf("Flush after mid-batch cancel: %v, want ErrMonitorClosed", err)
		}
		if _, err := m.Push(context.Background(), 1); !IsErr(err, ErrMonitorClosed) {
			t.Fatalf("Push after mid-batch cancel: %v, want ErrMonitorClosed", err)
		}
	})
}

// cancelAfterCtx reports Canceled from its (after+1)-th Err() call on —
// a deterministic stand-in for a context cancelled mid-batch.
type cancelAfterCtx struct {
	context.Context
	calls, after int
}

func (c *cancelAfterCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}
