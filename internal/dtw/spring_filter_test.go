package dtw

import (
	"math"
	"math/rand"
	"testing"
)

// filterRandomStream draws a stream that alternates between in-band
// wandering and far excursions, so the time-domain prefilter sees both
// live and dead stretches (and the boundary between them) on most draws.
// About one point in 64 is NaN, +Inf or -Inf: an infinite point is dead,
// a NaN one is not (it compares outside no range) and turns every cell it
// reaches into NaN.
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
		if rng.Intn(64) == 0 {
			v[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		}
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

// filterStats counts what one filtered-versus-plain run exercised.
type filterStats struct {
	skipped int64 // points the prefilter skipped
	// rows counts the rows of every column the filtered spring advanced,
	// pruned those of them above hi after the advance.
	rows, pruned int64
	// bestAbove counts the points after which the two Bests differed,
	// both above the threshold.
	bestAbove int64
}

func (a *filterStats) add(b filterStats) {
	a.skipped += b.skipped
	a.rows += b.rows
	a.pruned += b.pruned
	a.bestAbove += b.bestAbove
}

// sameMatch compares two matches bit for bit, NaN distances included.
func sameMatch(a, b SubsequenceMatch) bool {
	return a.Start == b.Start && a.End == b.End &&
		math.Float64bits(a.Distance) == math.Float64bits(b.Distance)
}

// checkFilterDifferential feeds the same stream to a prefiltered and an
// unfiltered spring and requires, point by point, bit-identical
// emissions, the row invariant of the pruned column (checkRowInvariant)
// and the Best contract: whenever either side's Best is <= threshold,
// both agree bit for bit. Then it requires flush agreement.
func checkFilterDifferential(t *testing.T, q, stream []float64, threshold float64, minGap int) filterStats {
	t.Helper()
	spF, err := NewSpring(q, SpringConfig{Threshold: threshold, MinGap: minGap, Prefilter: true})
	if err != nil {
		t.Fatal(err)
	}
	spP, err := NewSpring(q, SpringConfig{Threshold: threshold, MinGap: minGap})
	if err != nil {
		t.Fatal(err)
	}
	var st filterStats
	for i, v := range stream {
		skipped := spF.Skipped()
		mF, okF := spF.AppendFiltered(v)
		mP, okP := spP.Append(v)
		if okF != okP || mF != mP {
			t.Fatalf("point %d (v=%v): emission divergence: filtered (%+v, %v) vs plain (%+v, %v)",
				i, v, mF, okF, mP, okP)
		}
		checkRowInvariant(t, i, spF, spP)
		if spF.Skipped() == skipped {
			st.rows += int64(len(q))
			st.pruned += int64(len(q) - 1 - spF.hi)
		}
		bF, okF := spF.Best()
		bP, okP := spP.Best()
		if okF != okP || !sameMatch(bF, bP) {
			if (okF && bF.Distance <= threshold) || (okP && bP.Distance <= threshold) {
				t.Fatalf("point %d (v=%v): Best at or below threshold %v diverged: filtered (%+v, %v) vs plain (%+v, %v)",
					i, v, threshold, bF, okF, bP, okP)
			}
			st.bestAbove++
		}
	}
	fF, okF := spF.Flush()
	fP, okP := spP.Flush()
	if okF != okP || !sameMatch(fF, fP) {
		t.Fatalf("flush divergence: filtered (%+v, %v) vs plain (%+v, %v)", fF, okF, fP, okP)
	}
	if spF.Points() != spP.Points() {
		t.Fatalf("points diverge: %d vs %d", spF.Points(), spP.Points())
	}
	st.skipped = spF.Skipped()
	return st
}

// checkRowInvariant holds the pruned column of a filtered spring to the
// column a plain spring fills after the same points: every plain cell
// <= threshold sits at or below hi and equals the pruned cell bit for bit,
// value and start pointer; every row above hi is dead (> threshold or NaN)
// in both columns.
func checkRowInvariant(t *testing.T, point int, pruned, plain *Spring) {
	t.Helper()
	thr := plain.threshold
	for i, d := range plain.d {
		if i > pruned.hi {
			if d <= thr || pruned.d[i] <= thr {
				t.Fatalf("point %d: row %d above hi=%d is live: plain %v, pruned %v (threshold %v)",
					point, i, pruned.hi, d, pruned.d[i], thr)
			}
			continue
		}
		if d <= thr && (math.Float64bits(pruned.d[i]) != math.Float64bits(d) || pruned.s[i] != plain.s[i]) {
			t.Fatalf("point %d: live row %d diverged: pruned (%v, start %d) vs plain (%v, start %d)",
				point, i, pruned.d[i], pruned.s[i], d, plain.s[i])
		}
	}
}

// randomFilterThreshold draws a threshold from tight (mass skipping and
// pruning) to loose (rare skipping), including exact zero.
func randomFilterThreshold(rng *rand.Rand, sel, qlen int) float64 {
	switch sel % 4 {
	case 0:
		return 0
	case 1:
		return rng.Float64() * 0.01
	case 2:
		return rng.Float64() * float64(qlen)
	default:
		return rng.Float64() * 100 * float64(qlen)
	}
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
		threshold := randomFilterThreshold(rng, rng.Intn(4), len(q))
		skippedTotal += checkFilterDifferential(t, q, stream, threshold, rng.Intn(4)).skipped
		pointsTotal += int64(len(stream))
	}
	// The property is vacuous if the generator never exercises the skip
	// path; require that a meaningful share of points was prefiltered.
	if skippedTotal < pointsTotal/20 {
		t.Fatalf("prefilter skipped only %d of %d points: generator no longer exercises the dead path",
			skippedTotal, pointsTotal)
	}
}

// TestSpringPrunedRowInvariant pins the pruned column advance over 3000
// random trials, non-finite stream points included: after every point
// the pruned column holds plain Append's live cells bit for bit, every
// row above hi is dead, and Best follows its contract (see
// checkFilterDifferential). The floors keep it from passing vacuously:
// a large share of the advanced rows must lie above hi, and the two
// Bests must part above the threshold at least once.
func TestSpringPrunedRowInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var total filterStats
	for trial := 0; trial < 3000; trial++ {
		q := kernelRandomSeries(rng, rng.Intn(16)+1)
		stream := filterRandomStream(rng, queryRange(q), rng.Intn(200)+1)
		threshold := randomFilterThreshold(rng, rng.Intn(4), len(q))
		total.add(checkFilterDifferential(t, q, stream, threshold, rng.Intn(4)))
	}
	if total.pruned < total.rows*2/5 {
		t.Fatalf("only %d of %d advanced rows lay above hi: the generator no longer exercises the pruning",
			total.pruned, total.rows)
	}
	if total.bestAbove == 0 {
		t.Fatal("Best never parted above the threshold: the contract's exception is not exercised")
	}
	t.Logf("%d of %d advanced rows above hi (%.1f%%), %d points with Bests parted above the threshold",
		total.pruned, total.rows, 100*float64(total.pruned)/float64(total.rows), total.bestAbove)
}

// TestSpringMixedEntryPoints drives one prefiltered spring through Append
// and AppendFiltered at random: the full advance sets hi to the last row,
// so the row invariant and the emissions hold whichever entry point
// advanced the stored column.
func TestSpringMixedEntryPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 300; trial++ {
		q := kernelRandomSeries(rng, rng.Intn(16)+1)
		stream := filterRandomStream(rng, queryRange(q), rng.Intn(200)+1)
		cfg := SpringConfig{Threshold: randomFilterThreshold(rng, rng.Intn(4), len(q)), MinGap: rng.Intn(4)}
		spP, err := NewSpring(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Prefilter = true
		spM, err := NewSpring(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range stream {
			appendM := spM.AppendFiltered
			if rng.Intn(2) == 0 {
				appendM = spM.Append
			}
			mM, okM := appendM(v)
			mP, okP := spP.Append(v)
			if okM != okP || mM != mP {
				t.Fatalf("trial %d point %d: emission divergence: mixed (%+v, %v) vs plain (%+v, %v)", trial, i, mM, okM, mP, okP)
			}
			checkRowInvariant(t, i, spM, spP)
		}
	}
}

// TestSpringPrunedChainAtThreshold pins the pruned chain's stop rule on
// exact ties, which random draws almost never hit: a chain cell equal to
// the threshold is live, is stored and captures the match. On the query
// {0, 1} at threshold 1, the point 0 reaches row 1 through the chain at
// exactly 1; at threshold 0, the query {0, 0, 0} chains a zero-distance
// match up from row 0. The far point after each confirms the match.
func TestSpringPrunedChainAtThreshold(t *testing.T) {
	for _, tc := range []struct {
		q, stream []float64
		threshold float64
	}{
		{[]float64{0, 1}, []float64{0, 9}, 1},
		{[]float64{0, 0, 0}, []float64{0, 9}, 0},
	} {
		checkFilterDifferential(t, tc.q, tc.stream, tc.threshold, 0)
		sp, err := NewSpring(tc.q, SpringConfig{Threshold: tc.threshold, Prefilter: true})
		if err != nil {
			t.Fatal(err)
		}
		sp.AppendFiltered(tc.stream[0])
		m, ok := sp.AppendFiltered(tc.stream[1])
		if want := (SubsequenceMatch{Start: 0, End: 0, Distance: tc.threshold}); !ok || m != want {
			t.Fatalf("q %v, threshold %v: (%+v, %v), want (%+v, true)", tc.q, tc.threshold, m, ok, want)
		}
	}
}

// FuzzSpringFilterDifferential lets the fuzzer drive the prefilter
// bit-identity property of TestSpringFilterBitIdentity, with the row
// invariant and the Best contract of TestSpringPrunedRowInvariant.
func FuzzSpringFilterDifferential(f *testing.F) {
	f.Add(int64(7), uint8(8), uint8(64), uint8(1))
	f.Add(int64(3), uint8(1), uint8(1), uint8(0))
	f.Add(int64(11), uint8(15), uint8(200), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, q8, s8, tsel uint8) {
		rng := rand.New(rand.NewSource(seed))
		q := kernelRandomSeries(rng, int(q8)%16+1)
		stream := filterRandomStream(rng, queryRange(q), int(s8)%200+1)
		checkFilterDifferential(t, q, stream, randomFilterThreshold(rng, int(tsel), len(q)), rng.Intn(4))
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

// TestSpringFilterBestContract pins Best under an armed filter on a
// two-row query at threshold 1. After the point 0 the plain spring's Best
// is row 1's dead cell 25, which the pruned advance never computes, so
// the filtered spring has no Best yet; once the point 5 completes a
// zero-distance path, both report it bit for bit.
func TestSpringFilterBestContract(t *testing.T) {
	q := []float64{0, 5}
	spF, err := NewSpring(q, SpringConfig{Threshold: 1, Prefilter: true})
	if err != nil {
		t.Fatal(err)
	}
	spP, err := NewSpring(q, SpringConfig{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	spF.AppendFiltered(0)
	spP.Append(0)
	if b, ok := spP.Best(); !ok || !sameMatch(b, SubsequenceMatch{Start: 0, End: 0, Distance: 25}) {
		t.Fatalf("plain Best after 0: (%+v, %v), want ({0 0 25}, true)", b, ok)
	}
	if b, ok := spF.Best(); ok {
		t.Fatalf("filtered Best after 0: (%+v, true), want none: row 1 stays unadvanced above the threshold", b)
	}
	spF.AppendFiltered(5)
	spP.Append(5)
	bF, okF := spF.Best()
	bP, okP := spP.Best()
	want := SubsequenceMatch{Start: 0, End: 1, Distance: 0}
	if !okF || !okP || !sameMatch(bF, want) || !sameMatch(bP, want) {
		t.Fatalf("Best after 0, 5: filtered (%+v, %v), plain (%+v, %v), want %+v on both", bF, okF, bP, okP, want)
	}
}
