package series

import (
	"math"
	"math/rand"
)

// WarpFunc maps normalised source time t in [0,1] to normalised target time
// in [0,1]. Warp functions produced by this package are monotone
// non-decreasing with w(0)=0 and w(1)=1, modelling the temporal stretches
// and shifts DTW is designed to absorb.
type WarpFunc func(t float64) float64

// RandomWarp builds a random monotone warp from knots+2 control points whose
// vertical spacing is jittered by strength in [0,1). strength 0 yields the
// identity; values near 1 produce severe local stretches. The result is a
// piecewise-linear monotone bijection of [0,1].
func RandomWarp(rng *rand.Rand, knots int, strength float64) WarpFunc {
	if knots < 1 {
		knots = 1
	}
	if strength < 0 {
		strength = 0
	}
	if strength > 0.95 {
		strength = 0.95
	}
	// Control ordinates: cumulative sums of jittered positive gaps.
	gaps := make([]float64, knots+1)
	total := 0.0
	for i := range gaps {
		gaps[i] = 1 + float64(strength*(float64(2*rng.Float64())-1))
		if gaps[i] < 0.05 {
			gaps[i] = 0.05
		}
		total += gaps[i]
	}
	ys := make([]float64, knots+2)
	acc := 0.0
	for i := 1; i < len(ys); i++ {
		acc += gaps[i-1]
		ys[i] = acc / total
	}
	ys[len(ys)-1] = 1
	xs := make([]float64, knots+2)
	for i := range xs {
		xs[i] = float64(i) / float64(knots+1)
	}
	return func(t float64) float64 {
		switch {
		case t <= 0:
			return 0
		case t >= 1:
			return 1
		}
		// Locate the segment; xs is uniform so direct indexing works.
		seg := int(t * float64(knots+1))
		if seg >= knots+1 {
			seg = knots
		}
		frac := (t - xs[seg]) / (xs[seg+1] - xs[seg])
		return float64(ys[seg]*(1-frac)) + float64(ys[seg+1]*frac)
	}
}

// ApplyWarp resamples v through warp w: output sample i takes the value of v
// at source position w(i/(n-1))·(len(v)-1), linearly interpolated. The
// output has n samples.
func ApplyWarp(v []float64, w WarpFunc, n int) []float64 {
	if n < 1 {
		panic("series: ApplyWarp target length < 1")
	}
	if len(v) == 0 {
		panic("series: ApplyWarp of empty series")
	}
	out := make([]float64, n)
	if n == 1 {
		out[0] = v[0]
		return out
	}
	last := float64(len(v) - 1)
	for i := range out {
		t := float64(i) / float64(n-1)
		pos := w(t) * last
		j := int(pos)
		if j >= len(v)-1 {
			out[i] = v[len(v)-1]
			continue
		}
		frac := pos - float64(j)
		out[i] = float64(v[j]*(1-frac)) + float64(v[j+1]*frac)
	}
	return out
}

// AddNoise returns a copy of v with iid Gaussian noise of standard
// deviation sigma added to every sample.
func AddNoise(rng *rand.Rand, v []float64, sigma float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x + float64(rng.NormFloat64()*sigma)
	}
	return out
}

// Sigmoid is a smooth step from 0 to 1 centred at c with slope controlled
// by width (samples over which most of the transition happens). It is used
// by the synthetic data-set generators to build plateau-style features.
func Sigmoid(x, c, width float64) float64 {
	if width <= 0 {
		width = 1
	}
	return 1 / (1 + math.Exp(-(x-c)/(width/4)))
}

// GaussianBump evaluates a Gaussian bump of amplitude amp, centre c and
// standard deviation sd at position x.
func GaussianBump(x, c, sd, amp float64) float64 {
	if sd <= 0 {
		return 0
	}
	d := (x - c) / sd
	return amp * math.Exp(-0.5*d*d)
}
