package sketch

import (
	"math"
	"math/rand"
	"testing"

	"sdtw/internal/datasets"
	"sdtw/internal/dtw"
	"sdtw/internal/lower"
)

func randomValues(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * 3
	}
	return v
}

// lbpaa computes the bound through the public pieces for a query/series
// pair: envelope at radius r, sketch at width w, query means at width w.
func lbpaa(t *testing.T, q, c []float64, r, w int) (float64, float64) {
	t.Helper()
	env := lower.NewEnvelope(c, r)
	sk, err := FromEnvelope(env, w)
	if err != nil {
		t.Fatal(err)
	}
	qm, err := Means(q, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	keogh, err := lower.Keogh(q, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	return LBPAA(qm, sk, len(c)), keogh
}

// TestLBPAAAdmissible is the property test for the stage-0 bound chain:
// LB_PAA <= LB_Keogh <= banded DTW, across lengths, radii and sketch
// widths. (lower's own suite pins LB_Keogh <= DTW for every band
// strategy; the end-to-end strategy coverage of the full cascade lives
// in the public store/flat equivalence tests.)
func TestLBPAAAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		n := rng.Intn(150) + 1
		r := rng.Intn(12)
		w := []int{1, 4, 16, 32}[rng.Intn(4)]
		q := randomValues(rng, n)
		c := randomValues(rng, n)
		paa, keogh := lbpaa(t, q, c, r, w)
		if err := lower.ValidateBound(paa, keogh); err != nil {
			t.Fatalf("LB_PAA exceeds LB_Keogh (n=%d r=%d w=%d): %v", n, r, w, err)
		}
		band := dtw.SakoeChibaRadius(n, n, r)
		exact, _, err := dtw.Banded(q, c, band)
		if err != nil {
			t.Fatal(err)
		}
		if err := lower.ValidateBound(paa, exact); err != nil {
			t.Fatalf("LB_PAA not admissible (n=%d r=%d w=%d): %v", n, r, w, err)
		}
	}
}

// TestLBPAAWideSketchMatchesKeogh pins the degenerate geometry: with
// width >= series length every non-empty segment is a single position,
// so the sketch is the envelope and LB_PAA must equal LB_Keogh bit for
// bit (each term is 1·d² in the same order).
func TestLBPAAWideSketchMatchesKeogh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 16, 31} {
		for _, w := range []int{n, n + 1, 2 * n, 64} {
			q := randomValues(rng, n)
			c := randomValues(rng, n)
			paa, keogh := lbpaa(t, q, c, 3, w)
			if math.Float64bits(paa) != math.Float64bits(keogh) {
				t.Fatalf("n=%d w=%d: LB_PAA %v != LB_Keogh %v", n, w, paa, keogh)
			}
		}
	}
}

// TestLBPAAPrunesSomething is the sanity check that the bound is not
// vacuously zero: distant series at a coarse width must produce a
// positive bound, or stage 0 would never prune anything.
func TestLBPAAPrunesSomething(t *testing.T) {
	n := 128
	q := make([]float64, n)
	c := make([]float64, n)
	for i := range c {
		c[i] = 10 + math.Sin(float64(i)/7)
	}
	paa, _ := lbpaa(t, q, c, 5, 16)
	if paa <= 0 {
		t.Fatalf("LB_PAA = %v for well-separated series, want > 0", paa)
	}
}

func TestFromEnvelopeValidates(t *testing.T) {
	if _, err := FromEnvelope(lower.NewEnvelope([]float64{1, 2}, 1), 0); err == nil {
		t.Fatal("width 0 accepted")
	}
	if _, err := FromEnvelope(lower.Envelope{}, 8); err == nil {
		t.Fatal("empty envelope accepted")
	}
	if _, err := Means(nil, 8, nil); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, err := Means([]float64{1}, 0, nil); err == nil {
		t.Fatal("width 0 accepted")
	}
}

// TestMeansReusesScratch pins the zero-allocation contract of the
// query-side summary when the caller supplies scratch with capacity.
func TestMeansReusesScratch(t *testing.T) {
	q := make([]float64, 200)
	for i := range q {
		q[i] = float64(i % 17)
	}
	scratch := make([]float64, 32)
	allocs := testing.AllocsPerRun(100, func() {
		out, err := Means(q, 32, scratch)
		if err != nil {
			t.Fatal(err)
		}
		scratch = out
	})
	if allocs != 0 {
		t.Fatalf("Means with scratch allocates %v times per run, want 0", allocs)
	}
}

// TestLBPAAZeroAlloc pins the hot per-candidate bound at zero
// allocations, matching the lower.Kim pattern: LBPAA, and LBPAABlock on a
// full block and on a tail.
func TestLBPAAZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randomValues(rng, 128)
	q := randomValues(rng, 128)
	sk, err := FromEnvelope(lower.NewEnvelope(c, 4), 16)
	if err != nil {
		t.Fatal(err)
	}
	qm, err := Means(q, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		sink += LBPAA(qm, sk, len(c))
	})
	if allocs != 0 {
		t.Fatalf("LBPAA allocates %v times per run, want 0", allocs)
	}
	_ = sink
	weights := Weights(len(q), 16, nil)
	sks := []Sketch{sk, sk, sk, sk}
	out := make([]float64, 4)
	for _, size := range []int{4, 3} {
		allocs = testing.AllocsPerRun(100, func() {
			LBPAABlock(qm, weights, sks[:size], out)
		})
		if allocs != 0 {
			t.Fatalf("LBPAABlock over %d allocates %v times per run, want 0", size, allocs)
		}
	}
}

// FuzzLBPAAAdmissible fuzzes the stage-0 contract differentially, like
// the existing bound fuzzers: LB_PAA must never exceed LB_Keogh at the
// same radius, nor the Sakoe-Chiba DTW distance the envelope assumes.
// The blocked form a search runs must return LBPAA's bits, on the clean
// sketch and with NaN and infinite coefficients planted.
func FuzzLBPAAAdmissible(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(2), uint8(16))
	f.Add(int64(9), uint8(1), uint8(0), uint8(1))
	f.Add(int64(23), uint8(60), uint8(7), uint8(32))
	f.Fuzz(func(t *testing.T, seed int64, n8, r8, w8 uint8) {
		n := int(n8)%96 + 1
		r := int(r8) % 10
		w := int(w8)%48 + 1
		rng := rand.New(rand.NewSource(seed))
		q := randomValues(rng, n)
		c := randomValues(rng, n)
		paa, keogh := lbpaa(t, q, c, r, w)
		if err := lower.ValidateBound(paa, keogh); err != nil {
			t.Errorf("LB_PAA exceeds LB_Keogh (n=%d r=%d w=%d): %v", n, r, w, err)
		}
		band := dtw.SakoeChibaRadius(n, n, r)
		exact, _, err := dtw.Banded(q, c, band)
		if err != nil {
			t.Fatal(err)
		}
		if err := lower.ValidateBound(paa, exact); err != nil {
			t.Errorf("LB_PAA not admissible (n=%d r=%d w=%d): %v", n, r, w, err)
		}
		qm, err := Means(q, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		sks := make([]Sketch, 1+rng.Intn(4))
		for j := range sks {
			sks[j], err = FromEnvelope(lower.NewEnvelope(randomValues(rng, n), r), w)
			if err != nil {
				t.Fatal(err)
			}
		}
		checkBlock(t, "fuzz clean", qm, sks, n)
		for j := range sks {
			plantNonFinite(rng, sks[j].Upper)
			plantNonFinite(rng, sks[j].Lower)
		}
		plantNonFinite(rng, qm)
		checkBlock(t, "fuzz non-finite", qm, sks, n)
	})
}

// nonFinite is what plantNonFinite writes: every non-finite float64 a
// coefficient could hold, and the finite extremes next to them.
var nonFinite = []float64{math.NaN(), math.Copysign(math.NaN(), -1), math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -math.MaxFloat64, 0, math.Copysign(0, -1)}

// plantNonFinite overwrites about a quarter of v with values of nonFinite.
func plantNonFinite(rng *rand.Rand, v []float64) {
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = nonFinite[rng.Intn(len(nonFinite))]
		}
	}
}

// checkBlock holds LBPAABlock over sks — a block of one to four — to
// LBPAA on each sketch, bit for bit.
func checkBlock(t *testing.T, name string, qm []float64, sks []Sketch, n int) {
	t.Helper()
	weights := Weights(n, len(qm), nil)
	out := make([]float64, len(sks))
	LBPAABlock(qm, weights, sks, out)
	for j, sk := range sks {
		if got, want := out[j], LBPAA(qm, sk, n); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s (n=%d w=%d, block of %d): candidate %d: LBPAABlock %v (%#x), LBPAA %v (%#x)",
				name, n, len(qm), len(sks), j, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestSegmentsMatchDivision pins the carried-remainder walker to the
// division it replaces: segment k of a length-n series at width w is
// [k·n/w, (k+1)·n/w), including the empty segments of n < w.
func TestSegmentsMatchDivision(t *testing.T) {
	for n := 1; n <= 600; n++ {
		for w := 1; w <= 70; w++ {
			seg := newSegments(n, w)
			for k := 0; k < w; k++ {
				lo, hi := seg.next()
				if wantLo, wantHi := k*n/w, (k+1)*n/w; lo != wantLo || hi != wantHi {
					t.Fatalf("n=%d w=%d segment %d = [%d, %d), want [%d, %d)", n, w, k, lo, hi, wantLo, wantHi)
				}
			}
		}
	}
}

// The textbook forms the segment walker replaced: each segment's bounds
// by two integer divisions. Kept as the bit-for-bit references.

func fromEnvelopeDivision(env lower.Envelope, w int) Sketch {
	n := len(env.Upper)
	sk := Sketch{Upper: make([]float64, w), Lower: make([]float64, w)}
	for k := 0; k < w; k++ {
		lo, hi := k*n/w, (k+1)*n/w
		if hi <= lo {
			continue
		}
		u, l := env.Upper[lo], env.Lower[lo]
		for i := lo + 1; i < hi; i++ {
			u, l = max(u, env.Upper[i]), min(l, env.Lower[i])
		}
		sk.Upper[k], sk.Lower[k] = u, l
	}
	return sk
}

func meansDivision(q []float64, w int) []float64 {
	n := len(q)
	out := make([]float64, w)
	for k := 0; k < w; k++ {
		lo, hi := k*n/w, (k+1)*n/w
		if hi <= lo {
			continue
		}
		sum := 0.0
		for _, v := range q[lo:hi] {
			sum += v
		}
		out[k] = sum / float64(hi-lo)
	}
	return out
}

func lbpaaDivision(qmean []float64, sk Sketch, n int) float64 {
	w := len(sk.Upper)
	sum := 0.0
	for k := 0; k < w; k++ {
		lo, hi := k*n/w, (k+1)*n/w
		if hi <= lo {
			continue
		}
		m := qmean[k]
		var d float64
		switch {
		case m > sk.Upper[k]:
			d = m - sk.Upper[k]
		case m < sk.Lower[k]:
			d = m - sk.Lower[k]
		default:
			continue
		}
		sum += float64(float64(hi-lo) * float64(d*d))
	}
	return sum
}

func weightsDivision(n, w int) []float64 {
	out := make([]float64, w)
	for k := range out {
		out[k] = float64((k+1)*n/w - k*n/w)
	}
	return out
}

// TestSketchMatchesDivisionForms holds FromEnvelope, Means, Weights and
// LBPAA to their division forms bit for bit, across lengths below, at and
// above the width, and LBPAABlock to LBPAA on blocks of one to four
// (every tail a search can leave), with and without NaN and infinite
// coefficients planted in the sketches and the query means.
func TestSketchMatchesDivisionForms(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return len(a) == len(b)
	}
	for iter := 0; iter < 2000; iter++ {
		n := rng.Intn(300) + 1
		w := rng.Intn(70) + 1
		q := randomValues(rng, n)
		env := lower.NewEnvelope(randomValues(rng, n), rng.Intn(8))
		sk, err := FromEnvelope(env, w)
		if err != nil {
			t.Fatal(err)
		}
		ref := fromEnvelopeDivision(env, w)
		if !same(sk.Upper, ref.Upper) || !same(sk.Lower, ref.Lower) {
			t.Fatalf("n=%d w=%d: FromEnvelope differs from the division form", n, w)
		}
		qm, err := Means(q, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !same(qm, meansDivision(q, w)) {
			t.Fatalf("n=%d w=%d: Means differs from the division form", n, w)
		}
		got, want := LBPAA(qm, sk, n), lbpaaDivision(qm, sk, n)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d w=%d: LBPAA %v, division form %v", n, w, got, want)
		}
		if !same(Weights(n, w, nil), weightsDivision(n, w)) {
			t.Fatalf("n=%d w=%d: Weights differs from the division form", n, w)
		}
		sks := []Sketch{sk}
		for j := rng.Intn(4); j > 0; j-- {
			other, err := FromEnvelope(lower.NewEnvelope(randomValues(rng, n), rng.Intn(8)), w)
			if err != nil {
				t.Fatal(err)
			}
			sks = append(sks, other)
		}
		checkBlock(t, "clean", qm, sks, n)
		if iter%2 == 1 {
			for j := range sks {
				plantNonFinite(rng, sks[j].Upper)
				plantNonFinite(rng, sks[j].Lower)
			}
			plantNonFinite(rng, qm)
			checkBlock(t, "non-finite", qm, sks, n)
			for j, sk := range sks {
				if got, want := LBPAA(qm, sk, n), lbpaaDivision(qm, sk, n); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d w=%d, non-finite candidate %d: LBPAA %v, division form %v", n, w, j, got, want)
				}
			}
		}
	}
}

// BenchmarkLBPAA is the per-candidate stage-0 bound. random128 is the
// index's default geometry over random walks: length 128, width 16.
// trace128-r3 is the knn-bounds shape — 4 000 Trace-shaped series of
// length 128, their radius-3 envelopes sketched at width 16 — in the
// reference form (LBPAA, one candidate at a time, walking the segments)
// and the blocked form a search runs (LBPAABlock, four at a time over the
// query's segment weights); both report ns/candidate.
func BenchmarkLBPAA(b *testing.B) {
	b.Run("random128", func(b *testing.B) {
		rng := rand.New(rand.NewSource(5))
		const n, w, count = 128, 16, 1024
		sks := make([]Sketch, count)
		for i := range sks {
			sk, err := FromEnvelope(lower.NewEnvelope(randomValues(rng, n), 3), w)
			if err != nil {
				b.Fatal(err)
			}
			sks[i] = sk
		}
		qm, err := Means(randomValues(rng, n), w, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += LBPAA(qm, sks[i%count], n)
		}
		_ = sink
	})
	const n, w = 128, 16
	d := datasets.Trace(datasets.Config{Seed: 5, SeriesPerClass: 1000, Length: n})
	sks := make([]Sketch, len(d.Series)-1)
	for i := range sks {
		sk, err := FromEnvelope(lower.NewEnvelope(d.Series[i].Values, 3), w)
		if err != nil {
			b.Fatal(err)
		}
		sks[i] = sk
	}
	qm, err := Means(d.Series[len(d.Series)-1].Values, w, nil)
	if err != nil {
		b.Fatal(err)
	}
	perCandidate := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(sks)), "ns/candidate")
	}
	b.Run("trace128-r3/reference", func(b *testing.B) {
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			for _, sk := range sks {
				sink += LBPAA(qm, sk, n)
			}
		}
		perCandidate(b)
		_ = sink
	})
	b.Run("trace128-r3/block", func(b *testing.B) {
		b.ReportAllocs()
		weights := Weights(n, w, nil)
		out := make([]float64, len(sks))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < len(sks); j += 4 {
				end := min(j+4, len(sks))
				LBPAABlock(qm, weights, sks[j:end], out[j:end])
			}
		}
		perCandidate(b)
	})
}
