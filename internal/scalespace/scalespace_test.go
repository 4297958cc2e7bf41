package scalespace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKernelNormalised(t *testing.T) {
	for _, sigma := range []float64{0.5, 1, 1.6, 3.2, 10} {
		k := Kernel(sigma)
		sum := 0.0
		for _, v := range k {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("kernel(σ=%v) sums to %v", sigma, sum)
		}
		if len(k)%2 != 1 {
			t.Fatalf("kernel(σ=%v) has even length %d", sigma, len(k))
		}
	}
}

func TestKernelSymmetric(t *testing.T) {
	k := Kernel(2.5)
	for i, j := 0, len(k)-1; i < j; i, j = i+1, j-1 {
		if math.Abs(k[i]-k[j]) > 1e-12 {
			t.Fatalf("kernel asymmetric at %d/%d: %v vs %v", i, j, k[i], k[j])
		}
	}
	// Peak at the centre.
	mid := len(k) / 2
	for i := range k {
		if k[i] > k[mid] {
			t.Fatalf("kernel peak not central")
		}
	}
}

func TestKernelDegenerateSigma(t *testing.T) {
	k := Kernel(0)
	if len(k) != 1 || k[0] != 1 {
		t.Fatalf("zero-σ kernel = %v, want identity", k)
	}
	k = Kernel(-1)
	if len(k) != 1 || k[0] != 1 {
		t.Fatalf("negative-σ kernel = %v, want identity", k)
	}
}

func TestKernelRadiusIs3Sigma(t *testing.T) {
	k := Kernel(4)
	wantRadius := int(math.Ceil(3 * 4.0))
	if len(k) != 2*wantRadius+1 {
		t.Fatalf("kernel length %d, want %d", len(k), 2*wantRadius+1)
	}
}

func TestConvolvePreservesConstant(t *testing.T) {
	v := make([]float64, 40)
	for i := range v {
		v[i] = 7.5
	}
	out := Convolve(v, Kernel(2))
	for i, x := range out {
		if math.Abs(x-7.5) > 1e-9 {
			t.Fatalf("constant series changed at %d: %v", i, x)
		}
	}
}

func TestConvolveEmptyInput(t *testing.T) {
	if out := Convolve(nil, Kernel(1)); len(out) != 0 {
		t.Fatalf("convolving empty input gave %v", out)
	}
}

func TestSmoothReducesVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, 200)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	variance := func(u []float64) float64 {
		m := 0.0
		for _, x := range u {
			m += x
		}
		m /= float64(len(u))
		ss := 0.0
		for _, x := range u {
			ss += (x - m) * (x - m)
		}
		return ss / float64(len(u))
	}
	s := Convolve(v, Kernel(3))
	if variance(s) >= variance(v) {
		t.Fatalf("smoothing did not reduce variance: %v vs %v", variance(s), variance(v))
	}
}

func TestSmoothZeroSigmaCopies(t *testing.T) {
	v := []float64{1, 2, 3}
	s := Convolve(v, Kernel(0))
	for i := range v {
		if s[i] != v[i] {
			t.Fatalf("zero-σ smooth altered input")
		}
	}
	s[0] = 99
	if v[0] == 99 {
		t.Fatalf("zero-σ smooth aliases input")
	}
}

func TestSmoothPreservesMeanApproximately(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := make([]float64, 64)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		s := Convolve(v, Kernel(2))
		var mv, ms float64
		for i := range v {
			mv += v[i]
			ms += s[i]
		}
		// Replicate-border smoothing distorts the mean slightly; it must
		// stay in the same ballpark.
		return math.Abs(mv-ms)/64 < 0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDownsample checks that each octave after the first is smoothed
// from every second sample of its predecessor's level s, an odd length
// keeping its last sample.
func TestDownsample(t *testing.T) {
	v := make([]float64, 29)
	for i := range v {
		v[i] = math.Sin(float64(i) / 3)
	}
	p, err := Build(v, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Octaves) < 2 {
		t.Fatalf("%d octaves, want at least 2", len(p.Octaves))
	}
	prev, next := p.Octaves[0], p.Octaves[1]
	if next.Stride != 2 {
		t.Fatalf("octave 1 stride = %d, want 2", next.Stride)
	}
	fine := prev.Gauss[levelsPerOctave].Values
	base := make([]float64, 15)
	for i := range base {
		base[i] = fine[2*i]
	}
	want := Convolve(base, Kernel(baseSigma))
	got := next.Gauss[0].Values
	if len(got) != len(want) {
		t.Fatalf("octave 1 has %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("octave 1 sample %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestAutoOctaves(t *testing.T) {
	tests := []struct {
		n    int
		want int
	}{
		{150, 3}, // Gun: ⌊log2 150⌋−4 = 3
		{275, 4}, // Trace: ⌊log2 275⌋−4 = 4
		{270, 4}, // 50Words
		{1024, 6},
		{16, 2}, // capped: octave 2 would have only 4 samples
		{8, 1},  // capped by minimum viable octave length
		{1, 1},
	}
	for _, tc := range tests {
		if got := AutoOctaves(tc.n); got != tc.want {
			t.Errorf("AutoOctaves(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestBuildStructure(t *testing.T) {
	v := make([]float64, 256)
	for i := range v {
		v[i] = math.Sin(float64(i) / 8)
	}
	p, err := Build(v, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Octaves) != 4 {
		t.Fatalf("built %d octaves, want AutoOctaves(256) = 4", len(p.Octaves))
	}
	for o, oct := range p.Octaves {
		if oct.Index != o {
			t.Errorf("octave %d has index %d", o, oct.Index)
		}
		if oct.Stride != 1<<o {
			t.Errorf("octave %d stride = %d, want %d", o, oct.Stride, 1<<o)
		}
		if len(oct.Gauss) != 2+3 {
			t.Errorf("octave %d has %d gauss levels, want 5", o, len(oct.Gauss))
		}
		if len(oct.DoG) != 2+2 {
			t.Errorf("octave %d has %d DoG levels, want 4", o, len(oct.DoG))
		}
		wantLen := 256 >> o
		if len(oct.Gauss[0].Values) != wantLen {
			t.Errorf("octave %d length = %d, want %d", o, len(oct.Gauss[0].Values), wantLen)
		}
		// Scales grow monotonically within the octave.
		for l := 1; l < len(oct.Gauss); l++ {
			if oct.Gauss[l].Sigma <= oct.Gauss[l-1].Sigma {
				t.Errorf("octave %d scales not increasing at level %d", o, l)
			}
		}
	}
	// Octave o+1 starts at double the scale of octave o.
	s0 := p.Octaves[0].Gauss[0].Sigma
	s1 := p.Octaves[1].Gauss[0].Sigma
	if math.Abs(s1-2*s0) > 1e-9 {
		t.Errorf("octave scale doubling: %v vs 2·%v", s1, s0)
	}
}

func TestBuildDoGIsDifference(t *testing.T) {
	v := make([]float64, 64)
	for i := range v {
		v[i] = float64(i % 7)
	}
	p, err := Build(v, Config{})
	if err != nil {
		t.Fatal(err)
	}
	oct := p.Octaves[0]
	for l := 0; l < len(oct.DoG); l++ {
		for i := range oct.DoG[l].Values {
			want := oct.Gauss[l+1].Values[i] - oct.Gauss[l].Values[i]
			if math.Abs(oct.DoG[l].Values[i]-want) > 1e-12 {
				t.Fatalf("DoG[%d][%d] = %v, want %v", l, i, oct.DoG[l].Values[i], want)
			}
		}
	}
}

func TestBuildRejectsTinySeries(t *testing.T) {
	if _, err := Build([]float64{1, 2, 3}, Config{}); err == nil {
		t.Fatal("3-sample series accepted")
	}
}

func TestBuildStopsWhenOctaveTooSmall(t *testing.T) {
	v := make([]float64, 20)
	p, err := Build(v, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 20 → 10 → 5: the third octave would hold fewer than 8 samples.
	if len(p.Octaves) != 2 {
		t.Fatalf("built %d octaves from 20 samples, want 2", len(p.Octaves))
	}
}

func TestGaussianBlurDetectsScale(t *testing.T) {
	// A bump of width w produces its strongest DoG response at a scale
	// comparable to w: check the argmax response grows with bump width.
	buildBump := func(sd float64) []float64 {
		v := make([]float64, 256)
		for i := range v {
			d := (float64(i) - 128) / sd
			v[i] = math.Exp(-0.5 * d * d)
		}
		return v
	}
	peakSigma := func(v []float64) float64 {
		p, err := Build(v, Config{})
		if err != nil {
			t.Fatal(err)
		}
		bestResp, bestSigma := 0.0, 0.0
		for _, oct := range p.Octaves {
			for _, dog := range oct.DoG {
				for _, x := range dog.Values {
					if a := math.Abs(x); a > bestResp {
						bestResp, bestSigma = a, dog.Sigma
					}
				}
			}
		}
		return bestSigma
	}
	narrow := peakSigma(buildBump(3))
	wide := peakSigma(buildBump(24))
	if wide <= narrow {
		t.Fatalf("wider bump did not peak at coarser scale: %v vs %v", wide, narrow)
	}
}
