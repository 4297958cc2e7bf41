package series

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	s := New("id-1", 3, []float64{1, 2, 3})
	if s.ID != "id-1" || s.Label != 3 || s.Len() != 3 {
		t.Fatalf("unexpected series: %v", s)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := New("a", 0, []float64{1, 2, 3})
	c := s.Clone()
	c.Values[0] = 99
	if s.Values[0] != 1 {
		t.Fatalf("Clone shares storage with original")
	}
}

func TestStringMentionsIdentity(t *testing.T) {
	s := New("abc", 7, make([]float64, 5))
	got := s.String()
	want := `Series(id="abc" label=7 len=5)`
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		values  []float64
		wantErr bool
	}{
		{"ok", []float64{1, 2, 3}, false},
		{"empty", nil, true},
		{"nan", []float64{1, math.NaN(), 3}, true},
		{"posinf", []float64{1, math.Inf(1)}, true},
		{"neginf", []float64{math.Inf(-1), 1}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := Series{Values: tc.values}.Validate()
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate() error = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestPointDistances(t *testing.T) {
	if got := SquaredDistance(3, 1); got != 4 {
		t.Errorf("SquaredDistance(3,1) = %v, want 4", got)
	}
	if got := SquaredDistance(1, 3); got != 4 {
		t.Errorf("SquaredDistance(1,3) = %v, want 4", got)
	}
	if got := AbsDistance(3, 1); got != 2 {
		t.Errorf("AbsDistance(3,1) = %v, want 2", got)
	}
	if got := AbsDistance(-1, 1); got != 2 {
		t.Errorf("AbsDistance(-1,1) = %v, want 2", got)
	}
}

func TestMeanStdMinMax(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	if m := Mean(v); m != 2.5 {
		t.Errorf("Mean = %v, want 2.5", m)
	}
	if s := Std(v); math.Abs(s-math.Sqrt(1.25)) > 1e-12 {
		t.Errorf("Std = %v, want %v", s, math.Sqrt(1.25))
	}
	lo, hi := MinMax(v)
	if lo != 1 || hi != 4 {
		t.Errorf("MinMax = (%v,%v), want (1,4)", lo, hi)
	}
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Errorf("empty-input stats should be zero")
	}
	lo, hi = MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Errorf("MinMax(nil) = (%v,%v), want (0,0)", lo, hi)
	}
}

func TestZNormalize(t *testing.T) {
	v := []float64{2, 4, 6, 8}
	z := ZNormalize(v)
	if math.Abs(Mean(z)) > 1e-12 {
		t.Errorf("z-normalized mean = %v, want 0", Mean(z))
	}
	if math.Abs(Std(z)-1) > 1e-12 {
		t.Errorf("z-normalized std = %v, want 1", Std(z))
	}
	// Constant series: all zeros, not NaN.
	z = ZNormalize([]float64{5, 5, 5})
	for _, x := range z {
		if x != 0 {
			t.Fatalf("constant series z-norm = %v, want zeros", z)
		}
	}
}

func TestNormalize01(t *testing.T) {
	v := Normalize01([]float64{10, 20, 30})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if math.Abs(v[i]-want[i]) > 1e-12 {
			t.Fatalf("Normalize01 = %v, want %v", v, want)
		}
	}
	v = Normalize01([]float64{7, 7})
	if v[0] != 0 || v[1] != 0 {
		t.Fatalf("constant Normalize01 = %v, want zeros", v)
	}
}

func TestResampleEndpointsPreserved(t *testing.T) {
	v := []float64{1, 5, 2, 8, 3}
	for _, n := range []int{1, 2, 5, 9, 50} {
		r := Resample(v, n)
		if len(r) != n {
			t.Fatalf("Resample length = %d, want %d", len(r), n)
		}
		if r[0] != v[0] {
			t.Errorf("n=%d: first sample %v, want %v", n, r[0], v[0])
		}
		if n > 1 && r[n-1] != v[len(v)-1] {
			t.Errorf("n=%d: last sample %v, want %v", n, r[n-1], v[len(v)-1])
		}
	}
}

func TestResampleIdentity(t *testing.T) {
	v := []float64{3, 1, 4, 1, 5}
	r := Resample(v, 5)
	for i := range v {
		if r[i] != v[i] {
			t.Fatalf("identity resample changed values: %v", r)
		}
	}
	// And it must be a copy.
	r[0] = 42
	if v[0] == 42 {
		t.Fatalf("identity resample aliases input")
	}
}

func TestResamplePanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Resample(v, 0) did not panic")
		}
	}()
	Resample([]float64{1}, 0)
}

func TestEuclideanAligned(t *testing.T) {
	d, err := EuclideanAligned([]float64{1, 2}, []float64{1, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d != 4 {
		t.Fatalf("EuclideanAligned = %v, want 4", d)
	}
	if _, err := EuclideanAligned([]float64{1}, []float64{1, 2}, nil); err == nil {
		t.Fatalf("length mismatch not reported")
	}
}

func TestEuclideanAlignedCustomDistance(t *testing.T) {
	d, err := EuclideanAligned([]float64{0, 0}, []float64{3, -4}, AbsDistance)
	if err != nil {
		t.Fatal(err)
	}
	if d != 7 {
		t.Fatalf("aligned L1 = %v, want 7", d)
	}
}

func TestZNormalizePropertyInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		v := make([]float64, len(raw))
		for i, x := range raw {
			// Bound the values so means stay finite.
			v[i] = math.Mod(x, 1e6)
			if math.IsNaN(v[i]) {
				v[i] = 0
			}
		}
		z := ZNormalize(v)
		return math.Abs(Mean(z)) < 1e-6 && (Std(v) == 0 || math.Abs(Std(z)-1) < 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMinMaxProperty(t *testing.T) {
	f := func(v []float64) bool {
		for i := range v {
			if math.IsNaN(v[i]) {
				v[i] = 0
			}
		}
		lo, hi := MinMax(v)
		if len(v) == 0 {
			return lo == 0 && hi == 0
		}
		for _, x := range v {
			if x < lo || x > hi {
				return false
			}
		}
		return lo <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestResampleConstantStaysConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		c := rng.Float64()*100 - 50
		v := make([]float64, 3+rng.Intn(40))
		for i := range v {
			v[i] = c
		}
		r := Resample(v, 1+rng.Intn(80))
		for _, x := range r {
			if math.Abs(x-c) > 1e-9 {
				t.Fatalf("constant series resampled to %v, want %v", x, c)
			}
		}
	}
}

// TestResampleBitIdenticalToReference pins the FMA-rounding fix: the
// interpolation in Resample rounds each product through an explicit
// float64 conversion, so its output must be bit-identical to this
// straight-line reference on every platform, including FMA-contracting
// ones (arm64/ppc64).
func TestResampleBitIdenticalToReference(t *testing.T) {
	reference := func(v []float64, n int) []float64 {
		out := make([]float64, n)
		if n == 1 {
			out[0] = v[0]
			return out
		}
		scale := float64(len(v)-1) / float64(n-1)
		for i := range out {
			pos := float64(i) * scale
			j := int(pos)
			if j >= len(v)-1 {
				out[i] = v[len(v)-1]
				continue
			}
			frac := pos - float64(j)
			left := v[j] * (1 - frac) // product rounded by assignment
			right := v[j+1] * frac    // product rounded by assignment
			out[i] = left + right
		}
		out[n-1] = v[len(v)-1]
		return out
	}
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 100; trial++ {
		ln := 1 + rng.Intn(300)
		n := 1 + rng.Intn(300)
		v := make([]float64, ln)
		for i := range v {
			v[i] = (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(5)-2))
		}
		got := Resample(v, n)
		want := reference(v, n)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (len=%d n=%d) sample %d: %v != reference %v", trial, ln, n, i, got[i], want[i])
			}
		}
	}
}

// TestUseSquaredKernel pins the dispatch decision as a pure function of
// its argument: nil and SquaredDistance itself select the specialized
// kernels, anything else — a closure over the same arithmetic included —
// takes the generic path.
func TestUseSquaredKernel(t *testing.T) {
	if !UseSquaredKernel(nil) {
		t.Error("nil must select the squared kernel")
	}
	if !UseSquaredKernel(SquaredDistance) {
		t.Error("SquaredDistance must select the squared kernel")
	}
	wrapped := func(a, b float64) float64 { return SquaredDistance(a, b) }
	if UseSquaredKernel(wrapped) {
		t.Error("a closure over the squared cost must not select the squared kernel")
	}
	if UseSquaredKernel(AbsDistance) {
		t.Error("a custom cost must not select the squared kernel")
	}
}
