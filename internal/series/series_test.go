package series

import (
	"math"
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
