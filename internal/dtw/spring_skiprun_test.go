package dtw

import (
	"math"
	"math/rand"
	"testing"
)

// sameSpringState compares every field of two springs' state bit for
// bit, the stale rows above hi included.
func sameSpringState(a, b *Spring) bool {
	if a.t != b.t || a.skipped != b.skipped || a.cells != b.cells || a.hi != b.hi ||
		a.hasBest != b.hasBest || !sameMatch(a.best, b.best) ||
		math.Float64bits(a.dmin) != math.Float64bits(b.dmin) || a.ts != b.ts || a.te != b.te ||
		a.nextStart != b.nextStart || len(a.d) != len(b.d) {
		return false
	}
	for i := range a.d {
		if math.Float64bits(a.d[i]) != math.Float64bits(b.d[i]) || a.s[i] != b.s[i] {
			return false
		}
	}
	return true
}

// skipRunStats counts the run shapes one differential exercised.
type skipRunStats struct {
	runs      int // SkipRun calls
	single    int // runs of one point
	hiLive    int // runs entered with live rows (hi >= 0)
	confirmed int // runs whose first point confirmed a pending match
	gapSpan   int // runs of two or more points inside one MinGap window
}

func (a *skipRunStats) add(b skipRunStats) {
	a.runs += b.runs
	a.single += b.single
	a.hiLive += b.hiLive
	a.confirmed += b.confirmed
	a.gapSpan += b.gapSpan
}

// checkSkipRunDifferential feeds stream to two prefiltered springs in
// lockstep. The reference takes every point through AppendFiltered. The
// other takes each run of points the reference skipped through one
// SkipRun — maximal runs cut at random, as chunk boundaries and a
// fleet's narrower dead set cut them — and the other points through
// AppendFiltered. After every step the two states must be identical bit
// for bit, and a SkipRun must return exactly what the run's
// AppendFiltered calls emitted: at most one match, at its first point.
func checkSkipRunDifferential(t *testing.T, rng *rand.Rand, q, stream []float64, threshold float64, minGap int) skipRunStats {
	t.Helper()
	cfg := SpringConfig{Threshold: threshold, MinGap: minGap, Prefilter: true}
	probe, err := NewSpring(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dead := make([]bool, len(stream))
	for i, v := range stream {
		skipped := probe.Skipped()
		probe.AppendFiltered(v)
		dead[i] = probe.Skipped() > skipped
	}
	ref, _ := NewSpring(q, cfg)
	run, _ := NewSpring(q, cfg)
	var st skipRunStats
	for i := 0; i < len(stream); {
		if !dead[i] {
			mR, okR := ref.AppendFiltered(stream[i])
			m, ok := run.AppendFiltered(stream[i])
			if ok != okR || m != mR {
				t.Fatalf("point %d: live emission (%+v, %v), reference (%+v, %v)", i, m, ok, mR, okR)
			}
			i++
		} else {
			end := i + 1
			for end < len(stream) && dead[end] && rng.Intn(8) != 0 {
				end++
			}
			n := end - i
			st.runs++
			if n == 1 {
				st.single++
			}
			if run.hi >= 0 {
				st.hiLive++
			}
			m, ok := run.SkipRun(n)
			for j := i; j < end; j++ {
				mR, okR := ref.AppendFiltered(stream[j])
				if j == i && (ok != okR || m != mR) {
					t.Fatalf("run %d..%d: SkipRun emitted (%+v, %v), first AppendFiltered (%+v, %v)", i, end, m, ok, mR, okR)
				}
				if j > i && okR {
					t.Fatalf("run %d..%d: AppendFiltered emitted %+v at point %d, after the run's first", i, end, mR, j)
				}
			}
			if ok {
				st.confirmed++
			}
			if n >= 2 && run.nextStart >= end {
				st.gapSpan++
			}
			i = end
		}
		if !sameSpringState(run, ref) {
			t.Fatalf("point %d: state diverged:\nrun       %+v\nreference %+v", i, *run, *ref)
		}
	}
	mR, okR := ref.Flush()
	m, ok := run.Flush()
	if ok != okR || m != mR {
		t.Fatalf("flush (%+v, %v), reference (%+v, %v)", m, ok, mR, okR)
	}
	return st
}

// TestSpringSkipRunMatchesSkips is the SkipRun exactness property over
// random queries, thresholds, gaps and regime-switching streams with
// non-finite points: n AppendFiltered calls on dead points and one
// SkipRun(n) leave the same state and emit the same match. The floors
// keep it from passing vacuously: every run shape the hub produces must
// occur.
func TestSpringSkipRunMatchesSkips(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var total skipRunStats
	for trial := 0; trial < 2000; trial++ {
		q := kernelRandomSeries(rng, rng.Intn(16)+1)
		stream := filterRandomStream(rng, queryRange(q), rng.Intn(300)+1)
		threshold := randomFilterThreshold(rng, rng.Intn(4), len(q))
		minGap := []int{0, 1, 3, 40}[rng.Intn(4)]
		total.add(checkSkipRunDifferential(t, rng, q, stream, threshold, minGap))
	}
	t.Logf("%+v", total)
	if total.single == 0 || total.hiLive == 0 || total.confirmed == 0 || total.gapSpan == 0 ||
		total.runs-total.single == 0 {
		t.Fatalf("a run shape never occurred: %+v", total)
	}
}

// TestSpringSkipRunCases pins the run shapes one by one on a query the
// reader can follow: q = (0, 1, 0) at threshold 0.5, so 9 is dead.
func TestSpringSkipRunCases(t *testing.T) {
	q := []float64{0, 1, 0}
	cases := []struct {
		name   string
		stream []float64
		minGap int
	}{
		{"single dead point", []float64{0, 1, 9, 0, 1, 0}, 0},
		{"run entered with live rows", []float64{0, 1, 9, 9, 9, 9}, 0},
		{"first point confirms the pending match", []float64{0, 1, 0, 9, 9, 9, 0, 1, 0}, 0},
		{"MinGap window spans the run", []float64{0, 1, 0, 9, 9, 9, 9, 0, 1, 0, 0, 1, 0}, 6},
		{"run at stream start", []float64{9, 9, 9, 0, 1, 0}, 2},
	}
	rng := rand.New(rand.NewSource(1))
	var total skipRunStats
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			total.add(checkSkipRunDifferential(t, rng, q, tc.stream, 0.5, tc.minGap))
		})
	}
	if total.single == 0 || total.hiLive == 0 || total.confirmed == 0 || total.gapSpan == 0 {
		t.Fatalf("a run shape never occurred: %+v", total)
	}
}
