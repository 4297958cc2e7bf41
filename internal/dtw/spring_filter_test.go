package dtw

import (
	"math"
	"math/rand"
	"testing"
)

// filterRandomStream draws a stream that alternates between in-band
// wandering and far excursions, so the time-domain prefilter sees both
// live and dead stretches (and the boundary between them) on most draws.
func filterRandomStream(rng *rand.Rand, n float64Range, points int) []float64 {
	v := make([]float64, points)
	offset := 0.0
	for i := range v {
		if rng.Intn(24) == 0 {
			// Jump regime: inside the band, near its edge, or far outside.
			switch rng.Intn(3) {
			case 0:
				offset = 0
			case 1:
				offset = (rng.Float64()*2 - 1) * n.span()
			default:
				offset = (rng.Float64()*2 - 1) * 50 * (n.span() + 1)
			}
		}
		v[i] = n.lo + rng.Float64()*(n.hi-n.lo) + offset
	}
	return v
}

type float64Range struct{ lo, hi float64 }

func (r float64Range) span() float64 { return r.hi - r.lo }

func queryRange(q []float64) float64Range {
	r := float64Range{q[0], q[0]}
	for _, x := range q[1:] {
		r.lo = math.Min(r.lo, x)
		r.hi = math.Max(r.hi, x)
	}
	return r
}

// checkFilterDifferential feeds the same stream to a prefiltered and an
// unfiltered spring and requires bit-identical emissions, point by point,
// plus flush agreement. Returns the filtered spring's skip count.
func checkFilterDifferential(t *testing.T, q, stream []float64, threshold float64, minGap int) int64 {
	t.Helper()
	spF, err := NewSpring(q, SpringConfig{Threshold: threshold, MinGap: minGap, Prefilter: true})
	if err != nil {
		t.Fatal(err)
	}
	spP, err := NewSpring(q, SpringConfig{Threshold: threshold, MinGap: minGap})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range stream {
		mF, okF := spF.AppendFiltered(v)
		mP, okP := spP.Append(v)
		if okF != okP || mF != mP {
			t.Fatalf("point %d (v=%v): emission divergence: filtered (%+v, %v) vs plain (%+v, %v)",
				i, v, mF, okF, mP, okP)
		}
	}
	fF, okF := spF.Flush()
	fP, okP := spP.Flush()
	if okF != okP || math.Float64bits(fF.Distance) != math.Float64bits(fP.Distance) ||
		fF.Start != fP.Start || fF.End != fP.End {
		t.Fatalf("flush divergence: filtered (%+v, %v) vs plain (%+v, %v)", fF, okF, fP, okP)
	}
	if spF.Points() != spP.Points() {
		t.Fatalf("points diverge: %d vs %d", spF.Points(), spP.Points())
	}
	return spF.Skipped()
}

// TestSpringFilterBitIdentity is the prefilter admissibility property:
// over random queries, thresholds, gaps and regime-switching streams,
// AppendFiltered emissions are bit-identical to Append's.
func TestSpringFilterBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var skippedTotal, pointsTotal int64
	for trial := 0; trial < 300; trial++ {
		q := kernelRandomSeries(rng, rng.Intn(16)+1)
		stream := filterRandomStream(rng, queryRange(q), rng.Intn(400)+1)
		// Thresholds from tight (mass skipping) to loose (rare skipping),
		// including exact zero.
		var threshold float64
		switch rng.Intn(4) {
		case 0:
			threshold = 0
		case 1:
			threshold = rng.Float64() * 0.01
		case 2:
			threshold = rng.Float64() * float64(len(q))
		default:
			threshold = rng.Float64() * 100 * float64(len(q))
		}
		skippedTotal += checkFilterDifferential(t, q, stream, threshold, rng.Intn(4))
		pointsTotal += int64(len(stream))
	}
	// The property is vacuous if the generator never exercises the skip
	// path; require that a meaningful share of points was prefiltered.
	if skippedTotal < pointsTotal/20 {
		t.Fatalf("prefilter skipped only %d of %d points: generator no longer exercises the dead path",
			skippedTotal, pointsTotal)
	}
}

// FuzzSpringFilterDifferential lets the fuzzer drive the prefilter
// bit-identity property of TestSpringFilterBitIdentity.
func FuzzSpringFilterDifferential(f *testing.F) {
	f.Add(int64(7), uint8(8), uint8(64), uint8(1))
	f.Add(int64(3), uint8(1), uint8(1), uint8(0))
	f.Add(int64(11), uint8(15), uint8(200), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, q8, s8, tsel uint8) {
		rng := rand.New(rand.NewSource(seed))
		q := kernelRandomSeries(rng, int(q8)%16+1)
		stream := filterRandomStream(rng, queryRange(q), int(s8)%200+1)
		var threshold float64
		switch tsel % 4 {
		case 0:
			threshold = 0
		case 1:
			threshold = rng.Float64() * 0.01
		case 2:
			threshold = rng.Float64() * float64(len(q))
		default:
			threshold = rng.Float64() * 100 * float64(len(q))
		}
		checkFilterDifferential(t, q, stream, threshold, rng.Intn(4))
	})
}

// TestSpringFilterSkipsDeadStretch pins the prefilter mechanics on an
// engineered stream: a match, then a long far-from-query stretch, then a
// second match. The dead stretch must be consumed without cell fills,
// the first match must be confirmed by the first dead point, and the
// second match must survive the dormant restart bit-identically.
func TestSpringFilterSkipsDeadStretch(t *testing.T) {
	q := []float64{0, 1, 0}
	var stream []float64
	stream = append(stream, 5, 0, 1, 0, 5) // match bracketed by spikes
	for i := 0; i < 100; i++ {
		stream = append(stream, 1000) // dead: (1000-1)² >> threshold
	}
	stream = append(stream, 0, 1, 0, 5)

	sp, err := NewSpring(q, SpringConfig{Threshold: 0.5, Prefilter: true})
	if err != nil {
		t.Fatal(err)
	}
	var got []SubsequenceMatch
	for _, v := range stream {
		if m, ok := sp.AppendFiltered(v); ok {
			got = append(got, m)
		}
	}
	if m, ok := sp.Flush(); ok {
		got = append(got, m)
	}
	if len(got) != 2 {
		t.Fatalf("got %d matches, want 2: %+v", len(got), got)
	}
	if got[0].Start != 1 || got[0].End != 3 || got[0].Distance != 0 {
		t.Fatalf("first match %+v, want {1 3 0}", got[0])
	}
	if got[1].Start != 105 || got[1].End != 107 || got[1].Distance != 0 {
		t.Fatalf("second match %+v, want {105 107 0}", got[1])
	}
	if skipped := sp.Skipped(); skipped < 100 {
		t.Fatalf("skipped %d points, want the whole 100-point dead stretch (and the spikes)", skipped)
	}
	wantCells := int64(len(q)) * (int64(len(stream)) - sp.Skipped())
	if sp.Cells() != wantCells {
		t.Fatalf("cells %d, want %d (|q|·appended points)", sp.Cells(), wantCells)
	}
}

// TestSpringFilterDisarmed: an infinite threshold or a NaN query element
// must disarm the filter, making AppendFiltered run the plain recurrence —
// including Best tracking, which the armed filter does not preserve across
// skips.
func TestSpringFilterDisarmed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := kernelRandomSeries(rng, 8)
	stream := filterRandomStream(rng, queryRange(q), 200)
	cases := []struct {
		name string
		q    []float64
		cfg  SpringConfig
	}{
		{"infinite threshold", q, SpringConfig{Threshold: math.Inf(1), Prefilter: true}},
		{"NaN query", append(append([]float64{}, q...), math.NaN()), SpringConfig{Threshold: 1, Prefilter: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spF, err := NewSpring(tc.q, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			plain := tc.cfg
			plain.Prefilter = false
			spP, err := NewSpring(tc.q, plain)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range stream {
				mF, okF := spF.AppendFiltered(v)
				mP, okP := spP.Append(v)
				if okF != okP || mF != mP {
					t.Fatalf("point %d: disarmed filter diverged: (%+v, %v) vs (%+v, %v)", i, mF, okF, mP, okP)
				}
			}
			if spF.Skipped() != 0 {
				t.Fatalf("disarmed filter skipped %d points", spF.Skipped())
			}
			bF, okF := spF.Best()
			bP, okP := spP.Best()
			if okF != okP || math.Float64bits(bF.Distance) != math.Float64bits(bP.Distance) ||
				bF.Start != bP.Start || bF.End != bP.End {
				t.Fatalf("disarmed Best diverged: (%+v, %v) vs (%+v, %v)", bF, okF, bP, okP)
			}
		})
	}
}

// TestSpringTemplateRecycle pins the pooling seam: a Spring initialised
// over slab backing, run, recycled with Reset and re-run must reproduce
// a fresh spring's emissions exactly — the contract the hub's arenas
// rely on when a closed stream's state is handed to a new stream.
func TestSpringTemplateRecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	q := kernelRandomSeries(rng, 9)
	tpl, err := NewSpringTemplate(q, SpringConfig{Threshold: 2, MinGap: 1, Prefilter: true})
	if err != nil {
		t.Fatal(err)
	}
	if tpl.StateLen() != len(q) {
		t.Fatalf("StateLen %d, want %d", tpl.StateLen(), len(q))
	}
	// One slab backs two springs, like an arena chunk.
	n := tpl.StateLen()
	dSlab := make([]float64, 2*n)
	sSlab := make([]int, 2*n)
	var pooled, fresh Spring
	tpl.Init(&pooled, dSlab[:n], sSlab[:n])
	tpl.Init(&fresh, dSlab[n:], sSlab[n:])

	run := func(sp *Spring, stream []float64) []SubsequenceMatch {
		var out []SubsequenceMatch
		for _, v := range stream {
			if m, ok := sp.AppendFiltered(v); ok {
				out = append(out, m)
			}
		}
		if m, ok := sp.Flush(); ok {
			out = append(out, m)
		}
		return out
	}

	// Dirty the pooled spring on one stream, then recycle it.
	run(&pooled, filterRandomStream(rng, queryRange(q), 300))
	pooled.Reset()
	if pooled.Points() != 0 || pooled.Cells() != 0 || pooled.Skipped() != 0 {
		t.Fatalf("Reset left counters: points=%d cells=%d skipped=%d", pooled.Points(), pooled.Cells(), pooled.Skipped())
	}

	stream := filterRandomStream(rng, queryRange(q), 400)
	gotPooled := run(&pooled, stream)
	gotFresh := run(&fresh, stream)
	if len(gotPooled) != len(gotFresh) {
		t.Fatalf("recycled spring emitted %d matches, fresh %d", len(gotPooled), len(gotFresh))
	}
	for i := range gotPooled {
		if gotPooled[i] != gotFresh[i] {
			t.Fatalf("match %d diverged after recycling: %+v vs %+v", i, gotPooled[i], gotFresh[i])
		}
	}
}
