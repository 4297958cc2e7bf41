// Package scalespace builds the 1-D Gaussian scale space and
// difference-of-Gaussians (DoG) stack that the salient-feature detector of
// package sift searches (paper §3.1.2, step 1).
//
// The series is organised into octaves: within an octave the smoothing
// scale grows geometrically by κ = 2^{1/s} per level; after s levels the
// scale has doubled and the series is downsampled by two to seed the next
// octave. Adjacent smoothed levels are subtracted to produce the DoG
// series D(i,σ) = L(i,κσ) − L(i,σ) whose scale-space extrema mark salient
// temporal features.
package scalespace

import (
	"fmt"
	"math"
)

// DefaultBaseSigma is the smoothing scale assigned to level 0 of octave 0,
// the SIFT convention.
const DefaultBaseSigma = 1.6

// Config controls pyramid construction.
type Config struct {
	// Octaves is the number of octaves. Zero means auto; see AutoOctaves.
	Octaves int
	// Levels is s, the number of scale sub-divisions per octave (κ^s = 2).
	// Zero means the paper default s = 2.
	Levels int
	// BaseSigma is the scale of the first level. Zero means 1.6.
	BaseSigma float64
}

func (c Config) withDefaults(n int) Config {
	if c.Levels <= 0 {
		c.Levels = 2
	}
	if c.BaseSigma <= 0 {
		c.BaseSigma = DefaultBaseSigma
	}
	if c.Octaves <= 0 {
		c.Octaves = AutoOctaves(n)
	}
	return c
}

// AutoOctaves returns the default octave count for a series of length n:
// ⌊log2 n⌋ − 4, at least 3, and never so many that an octave would shrink
// below 8 samples.
//
// The paper's §4.3 states o = ⌊log2 N⌋ − 6, which yields a single octave
// for the paper's own series lengths (150–275) — yet its Table 2 reports
// substantial feature populations at three distinct scale classes, which
// requires at least three octaves. We therefore treat the paper's formula
// as shifted and default to ⌊log2 N⌋ − 4 (3 octaves at N=150, 4 at
// N=270), which reproduces Table 2's fine/medium/rough structure. The
// paper's literal value remains available through Config.Octaves.
func AutoOctaves(n int) int {
	if n < 2 {
		return 1
	}
	o := int(math.Floor(math.Log2(float64(n)))) - 4
	if o < 3 {
		o = 3
	}
	// Cap: octave k has ~n/2^k samples; keep at least 8.
	maxO := 1
	for length := n; length >= 16; length /= 2 {
		maxO++
	}
	if o > maxO {
		o = maxO
	}
	return o
}

// Level is one smoothed version of the input within an octave.
type Level struct {
	// Values is the smoothed series at this octave's resolution.
	Values []float64
	// Sigma is the absolute smoothing scale in original-series samples.
	Sigma float64
}

// Octave groups the Gaussian levels and DoG levels sharing one resolution.
type Octave struct {
	// Index is the octave number (0 = original resolution).
	Index int
	// Stride is 2^Index: one sample here spans Stride original samples.
	Stride int
	// Gauss holds Levels+3 progressively smoothed series.
	Gauss []Level
	// DoG holds Levels+2 difference series; DoG[l] = Gauss[l+1] − Gauss[l].
	// DoG[l].Sigma records the lower of the two scales (the paper's σ in
	// D(i,σ) = L(i,κσ) − L(i,σ)).
	DoG []Level
}

// Pyramid is the full multi-octave scale-space representation of a series.
type Pyramid struct {
	Octaves []Octave
	Cfg     Config
	// N is the original series length.
	N int
}

// Kernel returns a normalised 1-D Gaussian kernel for scale sigma,
// truncated at ±3σ (≥99.7% of the mass, the paper's scope convention).
func Kernel(sigma float64) []float64 {
	if sigma <= 0 {
		return []float64{1}
	}
	radius := int(math.Ceil(3 * sigma))
	if radius < 1 {
		radius = 1
	}
	k := make([]float64, 2*radius+1)
	sum := 0.0
	inv := 1 / (2 * sigma * sigma)
	for i := -radius; i <= radius; i++ {
		v := math.Exp(-float64(i*i) * inv)
		k[i+radius] = v
		sum += v
	}
	for i := range k {
		k[i] /= sum
	}
	return k
}

// Convolve filters v with kernel k using replicate (clamp-to-edge) border
// handling, the standard choice for time-series smoothing since it avoids
// inventing zero-valued samples at the boundaries.
func Convolve(v, k []float64) []float64 {
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

// Smooth convolves v with a Gaussian of scale sigma.
func Smooth(v []float64, sigma float64) []float64 {
	if sigma <= 0 {
		out := make([]float64, len(v))
		copy(out, v)
		return out
	}
	return Convolve(v, Kernel(sigma))
}

// Downsample keeps every second sample of v ("picking every second pixel",
// §3.1.2), halving the temporal resolution.
func Downsample(v []float64) []float64 {
	out := make([]float64, (len(v)+1)/2)
	for i := range out {
		out[i] = v[2*i]
	}
	return out
}

// Build constructs the Gaussian pyramid and DoG stack for v.
func Build(v []float64, cfg Config) (*Pyramid, error) {
	if len(v) < 4 {
		return nil, fmt.Errorf("scalespace: series too short (%d samples, need >= 4)", len(v))
	}
	cfg = cfg.withDefaults(len(v))
	s := cfg.Levels
	kappa := math.Pow(2, 1/float64(s))
	p := &Pyramid{Cfg: cfg, N: len(v)}

	base := v
	stride := 1
	for o := 0; o < cfg.Octaves; o++ {
		if len(base) < 4 {
			break
		}
		oct := Octave{Index: o, Stride: stride}
		// Gaussian levels: s+3 so that s+2 DoGs exist and extrema can be
		// sought with one neighbour level on each side for s interior DoGs.
		numGauss := s + 3
		oct.Gauss = make([]Level, numGauss)
		for l := 0; l < numGauss; l++ {
			// Scale of this level relative to the octave's base resolution.
			relSigma := cfg.BaseSigma * math.Pow(kappa, float64(l))
			oct.Gauss[l] = Level{
				Values: Smooth(base, relSigma),
				Sigma:  relSigma * float64(stride),
			}
		}
		oct.DoG = make([]Level, numGauss-1)
		for l := 0; l+1 < numGauss; l++ {
			a, b := oct.Gauss[l], oct.Gauss[l+1]
			diff := make([]float64, len(a.Values))
			for i := range diff {
				diff[i] = b.Values[i] - a.Values[i]
			}
			oct.DoG[l] = Level{Values: diff, Sigma: a.Sigma}
		}
		p.Octaves = append(p.Octaves, oct)
		// Seed the next octave from the level whose scale doubled the base
		// (level s), downsampled by two.
		base = Downsample(oct.Gauss[s].Values)
		stride *= 2
	}
	if len(p.Octaves) == 0 {
		return nil, fmt.Errorf("scalespace: could not build any octave for length %d", len(v))
	}
	return p, nil
}
