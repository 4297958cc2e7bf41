package sdtw

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// cancelWorkload builds a collection large and long enough that an
// uncancelled batch search takes meaningfully long, so prompt-return
// assertions have teeth.
func cancelWorkload(tb testing.TB) []Series {
	tb.Helper()
	rng := rand.New(rand.NewSource(91))
	const n, length = 48, 600
	out := make([]Series, n)
	for i := range out {
		v := make([]float64, length)
		x := rng.NormFloat64()
		for t := range v {
			x += rng.NormFloat64() * 0.3
			v[t] = x
		}
		out[i] = NewSeries(fmt.Sprintf("cw-%d", i), i%4, v)
	}
	return out
}

// TestSearchPreCancelled: a context cancelled before the call returns
// immediately with context.Canceled and does no candidate work.
func TestSearchPreCancelled(t *testing.T) {
	data := cancelWorkload(t)
	ix, err := NewWindowedIndex(data, -1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, stats, err := ix.Search(ctx, data[0], WithK(3))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if stats.Evaluated != 0 {
		t.Fatalf("pre-cancelled search evaluated %d candidates", stats.Evaluated)
	}
}

// TestSearchCancellation is the cancellation property (run under -race by
// the CI race lane): cancelling a context mid-Search on a large synthetic
// collection returns promptly, propagates context.Canceled through the
// worker pool and the abandoning DP, and leaks no goroutines.
func TestSearchCancellation(t *testing.T) {
	data := cancelWorkload(t)
	// Unconstrained windowed DTW: each candidate costs a full 600x600
	// grid, so the batch runs long enough to be cancelled mid-flight.
	ix, err := NewWindowedIndex(data, -1)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		// K = the collection size never tightens the threshold, so every
		// DP fills its whole band and the cancellation poll inside the DP
		// — not abandonment — is what has to stop the work.
		_, _, err := ix.SearchBatch(ctx, data, WithK(len(data)))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()

	select {
	case err = <-done:
		// The search must report the cancellation itself.
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled search did not return within 5s")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancelled search took %v to return", elapsed)
	}

	// All worker goroutines must drain. NumGoroutine is noisy (runtime
	// helpers come and go), so retry briefly before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for {
		after := runtime.NumGoroutine()
		if after <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancellation", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The index stays fully usable after a cancelled search.
	nbrs, _, err := ix.Search(context.Background(), data[0], WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(nbrs) != 3 {
		t.Fatalf("post-cancel search returned %d neighbours", len(nbrs))
	}
}

// TestSearchDeadline: context.DeadlineExceeded propagates the same way.
func TestSearchDeadline(t *testing.T) {
	data := cancelWorkload(t)
	ix, err := NewWindowedIndex(data, -1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	_, _, err = ix.SearchBatch(ctx, data, WithK(len(data)))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}
