package lower

import (
	"math"
	"math/rand"
	"testing"
)

// kimTextbook is LB_Kim as its definition reads: the cost of the first
// pair of elements plus the cost of the last, counted once when both
// series are a single point (the one cell is both).
func kimTextbook(x, y []float64) float64 {
	first, last := x[0]-y[0], x[len(x)-1]-y[len(y)-1]
	if len(x) == 1 && len(y) == 1 {
		return float64(first * first)
	}
	return float64(first*first) + float64(last*last)
}

// keoghTextbook is LB_Keogh as its definition reads: the squared distance
// from each query point to the nearer envelope side, zero inside the
// envelope, summed in order.
func keoghTextbook(q []float64, env Envelope) float64 {
	sum := 0.0
	for i, v := range q {
		d := max(v-env.Upper[i], env.Lower[i]-v, 0)
		sum += float64(d * d)
	}
	return sum
}

func randomValues(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	scale := math.Pow(10, float64(rng.Intn(5)-2))
	for i := range v {
		v[i] = (rng.Float64()*2 - 1) * scale
	}
	return v
}

// TestKimDifferential pins LB_Kim against its textbook definition, bit for
// bit, including the single-point special case.
func TestKimDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		m := 1 + rng.Intn(40)
		if trial == 0 {
			n, m = 1, 1
		}
		x := randomValues(rng, n)
		y := randomValues(rng, m)
		g := kimTextbook(x, y)
		s, err := Kim(x, y, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(g) != math.Float64bits(s) {
			t.Fatalf("trial %d: LB_Kim bits differ: %v vs %v", trial, g, s)
		}
	}
}

// TestKeoghDifferential pins LB_Keogh against its textbook definition on
// random queries and envelopes, bit for bit.
func TestKeoghDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		q := randomValues(rng, n)
		c := randomValues(rng, n)
		env := NewEnvelope(c, rng.Intn(n+3))
		g := keoghTextbook(q, env)
		s, err := Keogh(q, env, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(g) != math.Float64bits(s) {
			t.Fatalf("trial %d: LB_Keogh bits differ: %v vs %v", trial, g, s)
		}
	}
}

// TestKeoghUnderProperties checks the early-abandoning Keogh contract on
// random thresholds:
//
//   - threshold +Inf never abandons and equals Keogh bit for bit;
//   - an abandoned sum strictly exceeds the threshold (it proves the
//     candidate prunable) and never exceeds the full sum;
//   - a non-abandoned sum equals the full sum bit for bit;
//   - the prune decision (bound > threshold) matches the full
//     evaluation's in every case.
func TestKeoghUnderProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(120)
		q := randomValues(rng, n)
		c := randomValues(rng, n)
		env := NewEnvelope(c, rng.Intn(n+2))

		full, err := Keogh(q, env, nil)
		if err != nil {
			t.Fatal(err)
		}
		inf, abandoned, err := KeoghUnder(q, env, math.Inf(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		if abandoned || math.Float64bits(inf) != math.Float64bits(full) {
			t.Fatalf("trial %d: +Inf threshold must return the exact bound: (%v,%v) vs %v",
				trial, inf, abandoned, full)
		}

		threshold := full * rng.Float64() * 1.5
		if trial%5 == 0 {
			threshold = 0
		}
		got, abandoned, err := KeoghUnder(q, env, threshold, nil)
		if err != nil {
			t.Fatal(err)
		}
		if abandoned {
			if got <= threshold {
				t.Fatalf("trial %d: abandoned sum %v must exceed threshold %v", trial, got, threshold)
			}
			if got > full {
				t.Fatalf("trial %d: partial sum %v exceeds full bound %v", trial, got, full)
			}
		} else if math.Float64bits(got) != math.Float64bits(full) {
			t.Fatalf("trial %d: non-abandoned sum %v != full bound %v", trial, got, full)
		}
		if (got > threshold) != (full > threshold) {
			t.Fatalf("trial %d: prune decision differs: partial %v, full %v, threshold %v",
				trial, got, full, threshold)
		}
	}
}

// TestEnvelopeRingBruteForce re-verifies the ring-deque envelope against
// a brute-force sliding window across awkward shapes: tiny series, radii
// past the length, long plateaus (equal values stress the tie dropping),
// and monotone ramps (worst-case one-sided deques).
func TestEnvelopeRingBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []func(n int) []float64{
		func(n int) []float64 { return randomValues(rng, n) },
		func(n int) []float64 { // plateaus
			v := make([]float64, n)
			level := 0.0
			for i := range v {
				if rng.Intn(4) == 0 {
					level = rng.Float64()
				}
				v[i] = level
			}
			return v
		},
		func(n int) []float64 { // monotone ramp
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(i)
			}
			return v
		},
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(80)
		v := shapes[trial%len(shapes)](n)
		r := rng.Intn(n + 5)
		env := NewEnvelope(v, r)
		if len(env.Upper) != n || len(env.Lower) != n {
			t.Fatalf("trial %d: envelope lengths %d/%d, want %d", trial, len(env.Upper), len(env.Lower), n)
		}
		for i := 0; i < n; i++ {
			lo, hi := i-r, i+r
			if lo < 0 {
				lo = 0
			}
			if hi > n-1 {
				hi = n - 1
			}
			up, dn := v[lo], v[lo]
			for j := lo + 1; j <= hi; j++ {
				if v[j] > up {
					up = v[j]
				}
				if v[j] < dn {
					dn = v[j]
				}
			}
			if env.Upper[i] != up || env.Lower[i] != dn {
				t.Fatalf("trial %d (n=%d r=%d) pos %d: envelope (%v,%v), want (%v,%v)",
					trial, n, r, i, env.Upper[i], env.Lower[i], up, dn)
			}
		}
	}
}

// TestEnvelopeAllocs pins the satellite: an envelope build allocates
// exactly twice — one backing for both outputs, one for both ring deques
// — at every size and radius.
func TestEnvelopeAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, tc := range []struct{ n, r int }{
		{10, 0}, {10, 3}, {10, 100}, {500, 5}, {500, 80}, {1000, 1000},
	} {
		v := randomValues(rng, tc.n)
		allocs := testing.AllocsPerRun(20, func() {
			NewEnvelope(v, tc.r)
		})
		if allocs != 2 {
			t.Errorf("NewEnvelope(n=%d, r=%d) allocates %v times per build, want exactly 2", tc.n, tc.r, allocs)
		}
	}
}

func BenchmarkKeoghKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	q := randomValues(rng, 1024)
	c := randomValues(rng, 1024)
	env := NewEnvelope(c, 64)
	for i := 0; i < b.N; i++ {
		if _, err := Keogh(q, env, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewEnvelope(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	v := randomValues(rng, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewEnvelope(v, 64)
	}
}

// TestBoundAllocs pins the hot bound entry points at zero allocations
// per call (the //sdtw:hotpath contract; NewEnvelope has its own
// exactly-2 pin above).
func TestBoundAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	q := randomValues(rng, 256)
	c := randomValues(rng, 256)
	env := NewEnvelope(c, 8)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Kim", func() { _, _ = Kim(q, c, nil) }},
		{"KeoghUnder", func() { _, _, _ = KeoghUnder(q, env, math.Inf(1), nil) }},
	} {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %v times per call, want 0", tc.name, allocs)
		}
	}
}
