package series

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func identityWarp(t float64) float64 { return t }

func TestRandomWarpEndpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		w := RandomWarp(rng, 1+rng.Intn(8), rng.Float64())
		if got := w(0); got != 0 {
			t.Fatalf("w(0) = %v, want 0", got)
		}
		if got := w(1); got != 1 {
			t.Fatalf("w(1) = %v, want 1", got)
		}
		if got := w(-0.5); got != 0 {
			t.Fatalf("w(-0.5) = %v, want clamp to 0", got)
		}
		if got := w(1.5); got != 1 {
			t.Fatalf("w(1.5) = %v, want clamp to 1", got)
		}
	}
}

func TestRandomWarpMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		w := RandomWarp(rng, 1+rng.Intn(10), rng.Float64())
		prev := -1.0
		for i := 0; i <= 1000; i++ {
			v := w(float64(i) / 1000)
			if v < prev-1e-12 {
				t.Fatalf("trial %d: warp not monotone at t=%v: %v < %v", trial, float64(i)/1000, v, prev)
			}
			prev = v
		}
	}
}

func TestRandomWarpZeroStrengthIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := RandomWarp(rng, 5, 0)
	for i := 0; i <= 100; i++ {
		x := float64(i) / 100
		if math.Abs(w(x)-x) > 1e-9 {
			t.Fatalf("zero-strength warp deviates at %v: %v", x, w(x))
		}
	}
}

func TestRandomWarpPropertyBounds(t *testing.T) {
	f := func(seed int64, knots uint8, strength float64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := RandomWarp(rng, int(knots%16), math.Mod(math.Abs(strength), 1))
		for i := 0; i <= 64; i++ {
			v := w(float64(i) / 64)
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyWarpIdentityInterpolatesLinearly(t *testing.T) {
	// 6 samples onto 11: every other output is a source sample, the ones
	// between are midpoints.
	v := []float64{0, 1, 4, 9, 16, 25}
	w := ApplyWarp(v, identityWarp, 11)
	for i := range w {
		want := v[i/2]
		if i%2 == 1 {
			want = (v[i/2] + v[i/2+1]) / 2
		}
		if math.Abs(w[i]-want) > 1e-12 {
			t.Fatalf("identity warp at %d: %v, want %v", i, w[i], want)
		}
	}
}

func TestApplyWarpPreservesEndpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v := []float64{3, 7, 1, 9, 4, 6, 2}
	for trial := 0; trial < 20; trial++ {
		w := RandomWarp(rng, 4, 0.7)
		out := ApplyWarp(v, w, 13)
		if out[0] != v[0] || out[len(out)-1] != v[len(v)-1] {
			t.Fatalf("warp moved endpoints: %v", out)
		}
	}
}

func TestApplyWarpSingleSample(t *testing.T) {
	out := ApplyWarp([]float64{42, 3}, identityWarp, 1)
	if len(out) != 1 || out[0] != 42 {
		t.Fatalf("single-sample warp = %v", out)
	}
}

func TestApplyWarpValueRangePreserved(t *testing.T) {
	// Linear interpolation cannot exceed the input's range.
	rng := rand.New(rand.NewSource(9))
	v := make([]float64, 50)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	lo, hi := MinMax(v)
	for trial := 0; trial < 10; trial++ {
		out := ApplyWarp(v, RandomWarp(rng, 6, 0.8), 80)
		olo, ohi := MinMax(out)
		if olo < lo-1e-9 || ohi > hi+1e-9 {
			t.Fatalf("warp escaped value range: [%v,%v] vs [%v,%v]", olo, ohi, lo, hi)
		}
	}
}

func TestAddNoiseStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := make([]float64, 10000)
	out := AddNoise(rng, v, 0.5)
	if math.Abs(Mean(out)) > 0.05 {
		t.Errorf("noise mean = %v, want ~0", Mean(out))
	}
	if math.Abs(Std(out)-0.5) > 0.05 {
		t.Errorf("noise std = %v, want ~0.5", Std(out))
	}
}

func TestAddNoiseZeroSigma(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := []float64{1, 2, 3}
	out := AddNoise(rng, v, 0)
	for i := range v {
		if out[i] != v[i] {
			t.Fatalf("zero-sigma noise changed values: %v", out)
		}
	}
}

func TestSigmoidShape(t *testing.T) {
	// Rises from ~0 to ~1 around the centre.
	if v := Sigmoid(0, 50, 10); v > 0.01 {
		t.Errorf("Sigmoid far left = %v, want ~0", v)
	}
	if v := Sigmoid(100, 50, 10); v < 0.99 {
		t.Errorf("Sigmoid far right = %v, want ~1", v)
	}
	if v := Sigmoid(50, 50, 10); math.Abs(v-0.5) > 1e-9 {
		t.Errorf("Sigmoid at centre = %v, want 0.5", v)
	}
	// Monotone.
	prev := -1.0
	for x := 0.0; x <= 100; x++ {
		v := Sigmoid(x, 50, 10)
		if v < prev {
			t.Fatalf("Sigmoid not monotone at %v", x)
		}
		prev = v
	}
	// Degenerate width defaults rather than dividing by zero.
	if v := Sigmoid(51, 50, 0); math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("Sigmoid with zero width = %v", v)
	}
}

func TestGaussianBump(t *testing.T) {
	if v := GaussianBump(10, 10, 3, 2); v != 2 {
		t.Errorf("bump peak = %v, want 2", v)
	}
	if v := GaussianBump(100, 10, 3, 2); v > 1e-9 {
		t.Errorf("bump tail = %v, want ~0", v)
	}
	if v := GaussianBump(5, 10, 0, 2); v != 0 {
		t.Errorf("bump with zero sd = %v, want 0", v)
	}
	// Symmetry.
	if l, r := GaussianBump(8, 10, 3, 2), GaussianBump(12, 10, 3, 2); math.Abs(l-r) > 1e-12 {
		t.Errorf("bump asymmetric: %v vs %v", l, r)
	}
}
