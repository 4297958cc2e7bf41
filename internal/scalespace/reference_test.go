package scalespace

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sdtw/internal/datasets"
)

// refConvolve is the one-accumulator, clamp-every-tap convolution that
// Convolve's blocked fill must reproduce bit for bit.
func refConvolve(v, k []float64) []float64 {
	n := len(v)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	radius := len(k) / 2
	for i := 0; i < n; i++ {
		acc := 0.0
		for t := -radius; t <= radius; t++ {
			j := i + t
			if j < 0 {
				j = 0
			} else if j >= n {
				j = n - 1
			}
			acc += v[j] * k[t+radius]
		}
		out[i] = acc
	}
	return out
}

// convolveCase derives a series of length n from seed, planting the
// values a reordered or paired summation would round differently: ±0,
// subnormals and ±1e300 (whose products overflow to ±Inf and whose sums
// cancel to NaN).
func convolveCase(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-308, 1e300, -1e300}
	v := make([]float64, n)
	for i := range v {
		switch rng.Intn(8) {
		case 0:
			v[i] = special[rng.Intn(len(special))]
		default:
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
	return v
}

// sameBits reports the first index at which got and want differ in any
// bit (a NaN must be the same NaN), or -1.
func sameBits(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

func checkConvolve(t testing.TB, v []float64, sigma float64) {
	t.Helper()
	k := Kernel(sigma)
	if i := sameBits(Convolve(v, k), refConvolve(v, k)); i >= 0 {
		t.Fatalf("n=%d σ=%v: output %d is %v, reference %v", len(v), sigma, i, Convolve(v, k)[i], refConvolve(v, k)[i])
	}
}

// FuzzConvolveDifferential holds the blocked convolution to the
// reference on fuzzed lengths 1…600 and scales 0.3–12. Its seeds run
// every length up to past twice the widest kernel's radius (all edge and
// interior splits) at σ from well under one sample to kernels far longer
// than the series, and the workloads' lengths at σ 1.6.
func FuzzConvolveDifferential(f *testing.F) {
	scale := func(sigma float64) uint16 { return uint16(math.Round((sigma - 0.3) / 11.7 * 65535)) }
	for _, sigma := range []float64{0.3, 0.5, 1, 1.6, 2.26, 3.2, 6.4, 12} {
		for n := 1; n <= 90; n++ {
			f.Add(int64(n)*31+int64(sigma*100), uint16(n-1), scale(sigma))
		}
	}
	for _, n := range []int{150, 270, 600} {
		f.Add(int64(n), uint16(n-1), scale(1.6))
	}
	// A −0 input: 0.0 + (−0) is +0 for the reference and the blocked fill.
	checkConvolve(f, []float64{math.Copysign(0, -1), math.Copysign(0, -1), math.Copysign(0, -1)}, 0.3)
	f.Fuzz(func(t *testing.T, seed int64, n, s uint16) {
		length := 1 + int(n)%600
		sigma := 0.3 + 11.7*float64(s)/65535
		checkConvolve(t, convolveCase(seed, length), sigma)
	})
}

// refBuild is the pyramid Build must reproduce bit for bit: freshly
// allocated levels, each smoothed by refConvolve with its own kernel.
func refBuild(v []float64, cfg Config) (*Pyramid, error) {
	if len(v) < 4 {
		return nil, fmt.Errorf("series too short")
	}
	cfg = cfg.withDefaults(len(v))
	s := cfg.Levels
	kappa := math.Pow(2, 1/float64(s))
	p := &Pyramid{Cfg: cfg, N: len(v)}
	base := v
	stride := 1
	for o := 0; o < cfg.Octaves && len(base) >= 4; o++ {
		oct := Octave{Index: o, Stride: stride}
		numGauss := s + 3
		oct.Gauss = make([]Level, numGauss)
		for l := range oct.Gauss {
			relSigma := cfg.BaseSigma * math.Pow(kappa, float64(l))
			oct.Gauss[l] = Level{Values: refConvolve(base, Kernel(relSigma)), Sigma: relSigma * float64(stride)}
		}
		oct.DoG = make([]Level, numGauss-1)
		for l := range oct.DoG {
			a, b := oct.Gauss[l], oct.Gauss[l+1]
			diff := make([]float64, len(a.Values))
			for i := range diff {
				diff[i] = b.Values[i] - a.Values[i]
			}
			oct.DoG[l] = Level{Values: diff, Sigma: a.Sigma}
		}
		p.Octaves = append(p.Octaves, oct)
		next := make([]float64, (len(base)+1)/2)
		for i := range next {
			next[i] = oct.Gauss[s].Values[2*i]
		}
		base = next
		stride *= 2
	}
	return p, nil
}

// TestBuildMatchesReference holds every level of a built pyramid, bit
// for bit, to the reference pyramid: Gun-, Trace- and 50Words-shaped
// series and series with planted ±0, subnormals and ±1e300, at the
// workloads' lengths and the shortest, under three configurations.
func TestBuildMatchesReference(t *testing.T) {
	inputs := make(map[string][]float64)
	for _, n := range []int{4, 5, 64, 150, 270, 1024} {
		cfg := datasets.Config{Seed: int64(n), SeriesPerClass: 1, Length: n}
		for _, d := range []*datasets.Dataset{datasets.Gun(cfg), datasets.Trace(cfg), datasets.FiftyWords(cfg)} {
			inputs[fmt.Sprintf("%s/%d", d.Name, n)] = d.Series[0].Values
		}
		inputs[fmt.Sprintf("planted/%d", n)] = convolveCase(int64(n), n)
	}
	var ws Workspace
	for name, v := range inputs {
		for _, cfg := range []Config{{}, {Levels: 3, BaseSigma: 0.7}, {Octaves: 9}} {
			want, werr := refBuild(v, cfg)
			// Build and a workspace reused across configurations and
			// lengths must both give the reference.
			for _, build := range []func([]float64, Config) (*Pyramid, error){Build, ws.Build} {
				got, err := build(v, cfg)
				if (err != nil) != (werr != nil) {
					t.Fatalf("%s %+v: error %v, reference %v", name, cfg, err, werr)
				}
				if err != nil {
					continue
				}
				if diff := samePyramid(got, want); diff != "" {
					t.Fatalf("%s %+v: %s", name, cfg, diff)
				}
			}
		}
	}
}

// samePyramid reports the first difference between got and want in any
// header or sample, compared by bits, or "".
func samePyramid(got, want *Pyramid) string {
	if got.N != want.N || got.Cfg != want.Cfg || len(got.Octaves) != len(want.Octaves) {
		return "pyramid shape differs"
	}
	for o, oct := range want.Octaves {
		g := got.Octaves[o]
		if g.Index != oct.Index || g.Stride != oct.Stride {
			return fmt.Sprintf("octave %d: header differs", o)
		}
		for _, pair := range [][2][]Level{{g.Gauss, oct.Gauss}, {g.DoG, oct.DoG}} {
			if len(pair[0]) != len(pair[1]) {
				return fmt.Sprintf("octave %d: %d levels, reference %d", o, len(pair[0]), len(pair[1]))
			}
			for l := range pair[1] {
				a, b := pair[0][l], pair[1][l]
				if math.Float64bits(a.Sigma) != math.Float64bits(b.Sigma) {
					return fmt.Sprintf("octave %d level %d: σ %v, reference %v", o, l, a.Sigma, b.Sigma)
				}
				if i := sameBits(a.Values, b.Values); i >= 0 {
					return fmt.Sprintf("octave %d level %d sample %d differs", o, l, i)
				}
			}
		}
	}
	return ""
}

// TestBuildIntoWorkspaceAllocatesNothing pins the pooled path: once a
// workspace has built a pyramid of a length, building another of that
// length under the same configuration allocates nothing.
func TestBuildIntoWorkspaceAllocatesNothing(t *testing.T) {
	v := convolveCase(1, 1024)
	var ws Workspace
	build := func() {
		if _, err := ws.Build(v, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(20, build); a != 0 {
		t.Fatalf("Workspace.Build allocates %v times, want 0", a)
	}
}

// BenchmarkConvolve times the blocked fill against the reference loop on
// a 1024-sample series at the first three octave-0 scales.
func BenchmarkConvolve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, 1024)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	for _, sigma := range []float64{1.6, 3.2, 6.4} {
		k := Kernel(sigma)
		out := make([]float64, len(v))
		padded := padEdges(make([]float64, len(v)+len(k)-1), v, len(k)/2)
		b.Run(fmt.Sprintf("sigma%.1f/blocked", sigma), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				convolvePadded(out, padded, k)
			}
		})
		b.Run(fmt.Sprintf("sigma%.1f/reference", sigma), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				refConvolve(v, k)
			}
		})
	}
}
