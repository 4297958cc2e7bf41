package dtw

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sdtw/internal/series"
)

// TestSpringMatchesOfflineSubsequence is the incremental-equivalence
// property at the kernel level: after every prefix of a random stream,
// Spring.Best must be bit-identical (==, not within-epsilon) to the
// offline Subsequence DP over that prefix.
func TestSpringMatchesOfflineSubsequence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(12)
		m := n + rng.Intn(60)
		q := make([]float64, n)
		s := make([]float64, m)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		for j := range s {
			s[j] = rng.NormFloat64()
		}
		sp, err := NewSpring(q, SpringConfig{Threshold: math.Inf(1)})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < m; j++ {
			if _, emitted := sp.Append(s[j]); emitted {
				t.Fatalf("trial %d: best-only Spring emitted a match", trial)
			}
			got, ok := sp.Best()
			if !ok {
				t.Fatalf("trial %d: no best after %d points", trial, j+1)
			}
			want, err := Subsequence(q, s[:j+1])
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d after %d points: Spring %+v, offline %+v", trial, j+1, got, want)
			}
		}
		if sp.Points() != m || sp.Cells() != int64(n*m) {
			t.Fatalf("trial %d: accounting points=%d cells=%d, want %d and %d",
				trial, sp.Points(), sp.Cells(), m, n*m)
		}
	}
}

// TestSpringEmission plants two exact occurrences of the query in a
// hostile stream and checks that thresholded emission reports both,
// non-overlapping, with the right bounds and zero distance.
func TestSpringEmission(t *testing.T) {
	q := []float64{0, 2, 0}
	stream := []float64{9, 9, 0, 2, 0, 9, 9, 9, 0, 2, 0, 9, 9}
	sp, err := NewSpring(q, SpringConfig{Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var got []SubsequenceMatch
	for _, v := range stream {
		if m, ok := sp.Append(v); ok {
			got = append(got, m)
		}
	}
	if m, ok := sp.Flush(); ok {
		got = append(got, m)
	}
	want := []SubsequenceMatch{{Start: 2, End: 4, Distance: 0}, {Start: 8, End: 10, Distance: 0}}
	if len(got) != len(want) {
		t.Fatalf("emitted %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	// Emitted matches never overlap and arrive in stream order.
	for i := 1; i < len(got); i++ {
		if got[i].Start <= got[i-1].End {
			t.Fatalf("overlapping matches: %+v then %+v", got[i-1], got[i])
		}
	}
}

// TestSpringMinGap: with a gap larger than the spacing between two
// plants, the second occurrence must be suppressed.
func TestSpringMinGap(t *testing.T) {
	q := []float64{0, 2, 0}
	// Occurrences at [2,4] and [7,9]: 2 points apart.
	stream := []float64{9, 9, 0, 2, 0, 9, 9, 0, 2, 0, 9, 9, 9, 9}
	count := func(gap int) int {
		sp, err := NewSpring(q, SpringConfig{Threshold: 0.5, MinGap: gap})
		if err != nil {
			t.Fatal(err)
		}
		matches := 0
		for _, v := range stream {
			if _, ok := sp.Append(v); ok {
				matches++
			}
		}
		if _, ok := sp.Flush(); ok {
			matches++
		}
		return matches
	}
	if got := count(0); got != 2 {
		t.Fatalf("gap 0 emitted %d matches, want 2", got)
	}
	if got := count(5); got != 1 {
		t.Fatalf("gap 5 emitted %d matches, want 1 (second plant inside the gap)", got)
	}
}

// TestSpringFlushPending: a region that crosses the threshold but is
// never confirmed mid-stream (nothing after it to close it) must be
// reported by Flush.
func TestSpringFlushPending(t *testing.T) {
	q := []float64{0, 2, 0}
	stream := []float64{9, 9, 0, 2, 0} // plant ends at the last point
	sp, err := NewSpring(q, SpringConfig{Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range stream {
		if _, ok := sp.Append(v); ok {
			t.Fatal("match confirmed before end of stream")
		}
	}
	m, ok := sp.Flush()
	if !ok || m.Start != 2 || m.End != 4 || m.Distance != 0 {
		t.Fatalf("Flush = %+v (%v), want [2,4] at 0", m, ok)
	}
	if _, ok := sp.Flush(); ok {
		t.Fatal("second Flush re-reported the match")
	}
}

// TestSpringValidation pins the constructor's sentinel errors.
func TestSpringValidation(t *testing.T) {
	if _, err := NewSpring(nil, SpringConfig{}); !errors.Is(err, series.ErrEmptySeries) {
		t.Fatalf("empty query: got %v, want ErrEmptySeries", err)
	}
	if _, err := NewSpring([]float64{1}, SpringConfig{MinGap: -1}); err == nil {
		t.Fatal("negative MinGap accepted")
	}
}

// TestSubsequenceSentinel pins the offline DP's sentinel wrapping.
func TestSubsequenceSentinel(t *testing.T) {
	if _, err := Subsequence(nil, []float64{1}); !errors.Is(err, series.ErrEmptySeries) {
		t.Fatalf("empty query: got %v, want ErrEmptySeries", err)
	}
	if _, err := Subsequence([]float64{1}, nil); !errors.Is(err, series.ErrEmptySeries) {
		t.Fatalf("empty stream: got %v, want ErrEmptySeries", err)
	}
}

// TestSubsequenceWSReuse: the workspace variant returns identical results
// across reuses and mixed sizes.
func TestSubsequenceWSReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ws Workspace
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(8)
		m := n + rng.Intn(30)
		q := make([]float64, n)
		s := make([]float64, m)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		for j := range s {
			s[j] = rng.NormFloat64()
		}
		got, err := SubsequenceWS(q, s, &ws)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Subsequence(q, s)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: workspace %+v, fresh %+v", trial, got, want)
		}
	}
}
