package lower

import (
	"math"
	"math/rand"
	"testing"

	"sdtw/internal/dtw"
)

func randSeries(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestKimKnownValue(t *testing.T) {
	got, err := Kim([]float64{1, 5, 2}, []float64{2, 9, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// (1-2)^2 + (2-4)^2 = 1 + 4.
	if got != 5 {
		t.Fatalf("Kim = %v, want 5", got)
	}
}

func TestKimSinglePointPair(t *testing.T) {
	// A 1x1 grid has one cell, which is both the first and last aligned
	// pair: the bound must pay it once, or it exceeds the exact DTW
	// distance and mis-prunes.
	got, err := Kim([]float64{0}, []float64{0.12}, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := dtw.Distance([]float64{0}, []float64{0.12}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != exact {
		t.Fatalf("Kim on 1-point pair = %v, want the exact single-cell cost %v", got, exact)
	}
}

func TestKimEmpty(t *testing.T) {
	if _, err := Kim(nil, []float64{1}, nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestKimIsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		x := randSeries(rng, 5+rng.Intn(50))
		y := randSeries(rng, 5+rng.Intn(50))
		kim, err := Kim(x, y, nil)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := dtw.Distance(x, y, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateBound(kim, exact); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEnvelopeBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(80)
		r := rng.Intn(12)
		v := randSeries(rng, n)
		env := NewEnvelope(v, r)
		for i := 0; i < n; i++ {
			lo, hi := i-r, i+r
			if lo < 0 {
				lo = 0
			}
			if hi >= n {
				hi = n - 1
			}
			wantMax, wantMin := v[lo], v[lo]
			for j := lo + 1; j <= hi; j++ {
				wantMax = math.Max(wantMax, v[j])
				wantMin = math.Min(wantMin, v[j])
			}
			if env.Upper[i] != wantMax || env.Lower[i] != wantMin {
				t.Fatalf("trial %d: envelope at %d = [%v,%v], want [%v,%v]",
					trial, i, env.Lower[i], env.Upper[i], wantMin, wantMax)
			}
		}
	}
}

func TestEnvelopeZeroRadius(t *testing.T) {
	v := []float64{3, 1, 4}
	env := NewEnvelope(v, 0)
	for i := range v {
		if env.Upper[i] != v[i] || env.Lower[i] != v[i] {
			t.Fatalf("zero-radius envelope differs from series")
		}
	}
}

func TestEnvelopeEmpty(t *testing.T) {
	env := NewEnvelope(nil, 3)
	if len(env.Upper) != 0 || len(env.Lower) != 0 {
		t.Fatal("empty envelope not empty")
	}
}

func TestKeoghInsideEnvelopeIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := randSeries(rng, 60)
	env := NewEnvelope(v, 5)
	// The series is inside its own envelope.
	got, err := Keogh(v, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("self LB_Keogh = %v, want 0", got)
	}
}

func TestKeoghLengthMismatch(t *testing.T) {
	env := NewEnvelope(make([]float64, 10), 2)
	if _, err := Keogh(make([]float64, 9), env, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestKeoghIsLowerBoundWithinRadius(t *testing.T) {
	// LB_Keogh with radius r lower-bounds DTW constrained to a
	// Sakoe-Chiba corridor of radius r, and hence also full DTW only
	// when r covers the full grid; the classical guarantee is against
	// the constrained distance. Check both: bound <= banded(r) always,
	// and bound <= full DTW when r is large.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 60; trial++ {
		n := 20 + rng.Intn(60)
		q := randSeries(rng, n)
		c := randSeries(rng, n)
		r := 2 + rng.Intn(10)
		bound, err := Keogh(q, NewEnvelope(c, r), nil)
		if err != nil {
			t.Fatal(err)
		}
		b := dtw.SakoeChiba(n, n, float64(2*r+1)/float64(n))
		banded, _, err := dtw.Banded(q, c, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateBound(bound, banded); err != nil {
			t.Fatalf("trial %d (r=%d): %v", trial, r, err)
		}
		// Full-radius envelope bounds unconstrained DTW.
		full, err := Keogh(q, NewEnvelope(c, n), nil)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := dtw.Distance(q, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateBound(full, exact); err != nil {
			t.Fatalf("trial %d full radius: %v", trial, err)
		}
	}
}

func TestKeoghTightensWithSmallerRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := randSeries(rng, 100)
	c := randSeries(rng, 100)
	tight, err := Keogh(q, NewEnvelope(c, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Keogh(q, NewEnvelope(c, 40), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tight < loose {
		t.Fatalf("smaller radius gave smaller bound: %v < %v", tight, loose)
	}
}

func TestValidateBound(t *testing.T) {
	if err := ValidateBound(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := ValidateBound(2, 2); err != nil {
		t.Fatal(err)
	}
	if err := ValidateBound(3, 2); err == nil {
		t.Fatal("violation not detected")
	}
}
