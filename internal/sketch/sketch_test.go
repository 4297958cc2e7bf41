package sketch

import (
	"math"
	"math/rand"
	"testing"

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
// allocations, matching the lower.Kim pattern.
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
}

// FuzzLBPAAAdmissible fuzzes the stage-0 contract differentially, like
// the existing bound fuzzers: LB_PAA must never exceed LB_Keogh at the
// same radius, nor the Sakoe-Chiba DTW distance the envelope assumes.
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
	})
}
