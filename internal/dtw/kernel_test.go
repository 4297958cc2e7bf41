package dtw

import (
	"math"
	"math/rand"
	"testing"

	"sdtw/internal/series"
)

// sqGeneric is the squared cost as a distinct function value: the same
// arithmetic as series.SquaredDistance but a different code pointer, so
// useSquaredKernel cannot recognise it and every call runs the generic
// per-cell indirect-call path. Differential tests compare the
// monomorphized kernels against it; bit-identity must hold because the
// two bodies perform identical operations.
func sqGeneric(a, b float64) float64 { d := a - b; return d * d }

func TestUseSquaredKernelDispatch(t *testing.T) {
	if !useSquaredKernel(nil) {
		t.Error("nil dist must select the squared kernel")
	}
	if !useSquaredKernel(series.SquaredDistance) {
		t.Error("series.SquaredDistance must select the squared kernel")
	}
	if useSquaredKernel(sqGeneric) {
		t.Error("a wrapper with the same body must NOT select the squared kernel")
	}
	if useSquaredKernel(series.AbsDistance) {
		t.Error("a custom cost must not select the squared kernel")
	}
}

// kernelRandomSeries draws n values from a mix of scales so sums exercise many
// exponents (rounding differences would surface as bit mismatches).
func kernelRandomSeries(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	scale := math.Pow(10, float64(rng.Intn(5)-2))
	for i := range v {
		v[i] = (rng.Float64()*2 - 1) * scale
	}
	return v
}

// kernelRandomBand builds a random normalized band for an n-by-m grid: random
// per-row intervals (occasionally degenerate or disjoint before
// normalization) repaired by Normalize, exactly how band builders
// produce them.
func kernelRandomBand(rng *rand.Rand, n, m int) Band {
	b := Band{Lo: make([]int, n), Hi: make([]int, n), M: m}
	for i := 0; i < n; i++ {
		a := rng.Intn(m)
		c := rng.Intn(m)
		if a > c {
			a, c = c, a
		}
		if rng.Intn(4) == 0 {
			c = a // degenerate single-cell row
		}
		b.Lo[i], b.Hi[i] = a, c
	}
	return b.Normalize()
}

// randomBudget mixes the abandonment regimes: mostly +Inf (never
// abandons), sometimes a budget near the true distance, sometimes 0
// (abandons almost immediately).
func randomBudget(rng *rand.Rand, exact float64) float64 {
	switch rng.Intn(4) {
	case 0:
		return math.Inf(1)
	case 1:
		return 0
	default:
		return exact * (0.1 + 1.4*rng.Float64())
	}
}

// TestKernelDifferentialBandedAbandon is the tentpole's differential
// property test: on random series, random normalized bands and random
// thresholds, the monomorphized banded kernel must return bit-identical
// distance, cell count and abandoned flag to the generic path.
func TestKernelDifferentialBandedAbandon(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var wsSpec, wsGen Workspace
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(60)
		m := 1 + rng.Intn(60)
		x := kernelRandomSeries(rng, n)
		y := kernelRandomSeries(rng, m)
		b := kernelRandomBand(rng, n, m)

		exact, _, err := BandedWS(x, y, b, sqGeneric, &wsGen)
		if err != nil {
			t.Fatalf("trial %d: generic banded: %v", trial, err)
		}
		budget := randomBudget(rng, exact)

		gd, gc, ga, gerr := BandedAbandonWS(x, y, b, sqGeneric, budget, &wsGen)
		sd, sc, sa, serr := BandedAbandonWS(x, y, b, nil, budget, &wsSpec)
		if (gerr == nil) != (serr == nil) {
			t.Fatalf("trial %d: error mismatch: generic %v, specialized %v", trial, gerr, serr)
		}
		if gerr != nil {
			continue
		}
		if math.Float64bits(gd) != math.Float64bits(sd) {
			t.Fatalf("trial %d (n=%d m=%d budget=%v): distance bits differ: generic %v specialized %v",
				trial, n, m, budget, gd, sd)
		}
		if gc != sc || ga != sa {
			t.Fatalf("trial %d: cells/abandoned differ: generic (%d,%v) specialized (%d,%v)",
				trial, gc, ga, sc, sa)
		}
	}
}

// TestKernelDifferentialBandedPath pins the flat-backed, kernel-filled
// BandedWithPath against the generic fill: bit-identical distance, equal
// cell counts and step-for-step equal optimal paths.
func TestKernelDifferentialBandedPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		m := 1 + rng.Intn(40)
		x := kernelRandomSeries(rng, n)
		y := kernelRandomSeries(rng, m)
		b := kernelRandomBand(rng, n, m)

		g, gerr := BandedWithPath(x, y, b, sqGeneric)
		s, serr := BandedWithPath(x, y, b, nil)
		if (gerr == nil) != (serr == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, gerr, serr)
		}
		if gerr != nil {
			continue
		}
		if math.Float64bits(g.Distance) != math.Float64bits(s.Distance) {
			t.Fatalf("trial %d: distance bits differ: %v vs %v", trial, g.Distance, s.Distance)
		}
		if g.Cells != s.Cells {
			t.Fatalf("trial %d: cells differ: %d vs %d", trial, g.Cells, s.Cells)
		}
		if len(g.Path) != len(s.Path) {
			t.Fatalf("trial %d: path lengths differ: %d vs %d", trial, len(g.Path), len(s.Path))
		}
		for k := range g.Path {
			if g.Path[k] != s.Path[k] {
				t.Fatalf("trial %d: path step %d differs: %v vs %v", trial, k, g.Path[k], s.Path[k])
			}
		}
	}
}

// TestKernelDifferentialFullDistance pins the monomorphized full-grid
// Distance loop against the generic one.
func TestKernelDifferentialFullDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 150; trial++ {
		x := kernelRandomSeries(rng, 1+rng.Intn(80))
		y := kernelRandomSeries(rng, 1+rng.Intn(80))
		g, err := Distance(x, y, sqGeneric)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Distance(x, y, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(g) != math.Float64bits(s) {
			t.Fatalf("trial %d: distance bits differ: %v vs %v", trial, g, s)
		}
	}
}

// TestKernelDifferentialSubsequence pins the monomorphized subsequence DP
// — values, start pointer and end — against the generic loop.
func TestKernelDifferentialSubsequence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var ws Workspace
	for trial := 0; trial < 150; trial++ {
		q := kernelRandomSeries(rng, 1+rng.Intn(30))
		s := kernelRandomSeries(rng, 1+rng.Intn(120))
		g, err := SubsequenceWS(q, s, sqGeneric, &ws)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := SubsequenceWS(q, s, nil, &ws)
		if err != nil {
			t.Fatal(err)
		}
		if g.Start != sp.Start || g.End != sp.End ||
			math.Float64bits(g.Distance) != math.Float64bits(sp.Distance) {
			t.Fatalf("trial %d: matches differ: generic %+v specialized %+v", trial, g, sp)
		}
	}
}

// TestKernelDifferentialSpring runs two springs — generic cost wrapper vs
// default cost — over the same random stream with random thresholds and
// gaps, comparing every emission, the running best and the final flush.
func TestKernelDifferentialSpring(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 60; trial++ {
		q := kernelRandomSeries(rng, 1+rng.Intn(20))
		stream := kernelRandomSeries(rng, 50+rng.Intn(400))
		threshold := math.Inf(1)
		if rng.Intn(2) == 0 {
			threshold = float64(len(q)) * 0.2 * rng.Float64()
		}
		minGap := rng.Intn(3)

		gen, err := NewSpring(q, SpringConfig{Dist: sqGeneric, Threshold: threshold, MinGap: minGap})
		if err != nil {
			t.Fatal(err)
		}
		spec, err := NewSpring(q, SpringConfig{Threshold: threshold, MinGap: minGap})
		if err != nil {
			t.Fatal(err)
		}
		if spec.squared != true || gen.squared != false {
			t.Fatalf("trial %d: dispatch flags wrong: generic %v specialized %v", trial, gen.squared, spec.squared)
		}
		for ti, v := range stream {
			gm, gok := gen.Append(v)
			sm, sok := spec.Append(v)
			if gok != sok || gm != sm {
				t.Fatalf("trial %d point %d: emissions differ: generic (%+v,%v) specialized (%+v,%v)",
					trial, ti, gm, gok, sm, sok)
			}
		}
		gb, gok := gen.Best()
		sb, sok := spec.Best()
		if gok != sok || gb.Start != sb.Start || gb.End != sb.End ||
			math.Float64bits(gb.Distance) != math.Float64bits(sb.Distance) {
			t.Fatalf("trial %d: best differs: generic (%+v,%v) specialized (%+v,%v)", trial, gb, gok, sb, sok)
		}
		gf, gok := gen.Flush()
		sf, sok := spec.Flush()
		if gok != sok || gf != sf {
			t.Fatalf("trial %d: flush differs: generic (%+v,%v) specialized (%+v,%v)", trial, gf, gok, sf, sok)
		}
	}
}

// TestBandedWithPathAllocs pins the flat-backing satellite: allocations
// must not grow with the row count (the per-row make slices used to cost
// n allocations).
func TestBandedWithPathAllocs(t *testing.T) {
	measure := func(n, m int) float64 {
		rng := rand.New(rand.NewSource(int64(n)))
		x := kernelRandomSeries(rng, n)
		y := kernelRandomSeries(rng, m)
		b := SakoeChiba(n, m, 0.2)
		return testing.AllocsPerRun(20, func() {
			if _, err := BandedWithPath(x, y, b, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := measure(40, 40)
	large := measure(400, 400)
	if small != large {
		t.Errorf("BandedWithPath allocations grow with size: %v at n=40, %v at n=400", small, large)
	}
	// Flat DP backing, row offsets, path, and at most a couple of
	// incidental headers — anything near the row count means the flat
	// backing regressed.
	if large > 6 {
		t.Errorf("BandedWithPath allocates %v times per call, want <= 6", large)
	}
}

func BenchmarkBandedKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	x := kernelRandomSeries(rng, 275)
	y := kernelRandomSeries(rng, 275)
	bd := SakoeChiba(275, 275, 0.10)
	var ws Workspace
	b.Run("generic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := BandedWS(x, y, bd, sqGeneric, &ws); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("specialized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := BandedWS(x, y, bd, nil, &ws); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSpringAppendKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	q := kernelRandomSeries(rng, 150)
	stream := kernelRandomSeries(rng, 4096)
	for _, mode := range []string{"generic", "specialized"} {
		b.Run(mode, func(b *testing.B) {
			cfg := SpringConfig{}
			if mode == "generic" {
				cfg.Dist = sqGeneric
			}
			sp, err := NewSpring(q, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sp.Append(stream[i%len(stream)])
			}
		})
	}
}
