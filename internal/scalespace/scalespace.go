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

// Convolve filters v with kernel k (odd length, as Kernel returns) using
// replicate (clamp-to-edge) border handling, the standard choice for
// time-series smoothing since it avoids inventing zero-valued samples at
// the boundaries.
func Convolve(v, k []float64) []float64 {
	out := make([]float64, len(v))
	if len(v) == 0 {
		return out
	}
	radius := len(k) / 2
	convolvePadded(out, padEdges(make([]float64, len(v)+2*radius), v, radius), k)
	return out
}

// padEdges writes v into dst (len(dst) == len(v)+2·radius, len(v) > 0)
// between radius copies of its first sample and radius of its last, the
// values a clamped tap reads, and returns dst.
func padEdges(dst, v []float64, radius int) []float64 {
	first, last := v[0], v[len(v)-1]
	for i := range radius {
		dst[i] = first
	}
	copy(dst[radius:], v)
	for i := radius + len(v); i < len(dst); i++ {
		dst[i] = last
	}
	return dst
}

// convolvePadded is the convolution over a series padded by padEdges:
// out[i] = 0 + p[i]·k[0] + p[i+1]·k[1] + … + p[i+2r]·k[2r], added in that
// order (len(p) == len(out)+len(k)−1), which is output i of the clamped
// convolution of the unpadded series. Outputs are filled four per pass
// with four independent accumulators, each adding its taps in the same
// order — the same bits as one output at a time, at four times the
// throughput of a single dependent add chain.
//
//sdtw:hotpath
func convolvePadded(out, p, k []float64) {
	i := 0
	for ; i+4 <= len(out); i += 4 {
		w := p[i : i+len(k)+3]
		w0, w1, w2, w3 := w[:len(k)], w[1:len(k)+1], w[2:len(k)+2], w[3:len(k)+3]
		a0, a1, a2, a3 := 0.0, 0.0, 0.0, 0.0
		for t, kt := range k {
			a0 += w0[t] * kt
			a1 += w1[t] * kt
			a2 += w2[t] * kt
			a3 += w3[t] * kt
		}
		out[i], out[i+1], out[i+2], out[i+3] = a0, a1, a2, a3
	}
	for ; i < len(out); i++ {
		w := p[i : i+len(k)]
		acc := 0.0
		for t, kt := range k {
			acc += w[t] * kt
		}
		out[i] = acc
	}
}

// Build constructs the Gaussian pyramid and DoG stack for v. The
// pyramid is the caller's: it is built into a workspace of its own.
func Build(v []float64, cfg Config) (*Pyramid, error) {
	return new(Workspace).Build(v, cfg)
}

// Workspace holds the buffers of one pyramid — its octave and level
// headers, one block holding every level's samples, and the padded base
// its levels are smoothed from — and the Gaussian kernels of the
// configuration it last built, so that a workspace kept across series
// builds each pyramid without allocating. A zero Workspace is ready to
// use; it is not safe for concurrent use.
type Workspace struct {
	pyr     Pyramid
	octaves []Octave
	levels  []Level
	samples []float64
	// padded is an octave's base between copies of its end samples.
	padded []float64
	// kernels[l] and sigmas[l] are the kernel and the octave-relative
	// scale of Gaussian level l for kernelSigma and kernelLevels, the
	// defaulted BaseSigma and Levels they were built for.
	kernels      [][]float64
	sigmas       []float64
	kernelSigma  float64
	kernelLevels int
}

// Build constructs the Gaussian pyramid and DoG stack for v into ws. The
// pyramid and its levels belong to ws: they are valid until the next
// Build on ws.
func (ws *Workspace) Build(v []float64, cfg Config) (*Pyramid, error) {
	if len(v) < 4 {
		return nil, fmt.Errorf("scalespace: series too short (%d samples, need >= 4)", len(v))
	}
	cfg = cfg.withDefaults(len(v))
	s := cfg.Levels
	numGauss := s + 3
	kernels, sigmas := ws.gaussKernels(cfg)

	// Size every buffer first: an octave of length m holds numGauss
	// Gaussian and numGauss−1 DoG levels, and every octave after the
	// first its downsampled base. len(v) >= 4 and cfg.Octaves >= 1, so
	// there is at least one octave.
	octaves, samples := 0, 0
	for m := len(v); octaves < cfg.Octaves && m >= 4; m = (m + 1) / 2 {
		samples += (2*numGauss - 1) * m
		if octaves > 0 {
			samples += m
		}
		octaves++
	}
	if cap(ws.octaves) < octaves {
		ws.octaves = make([]Octave, octaves)
	}
	if cap(ws.levels) < octaves*(2*numGauss-1) {
		ws.levels = make([]Level, octaves*(2*numGauss-1))
	}
	if cap(ws.samples) < samples {
		ws.samples = make([]float64, samples)
	}
	padding := 0
	for _, k := range kernels {
		padding = max(padding, len(k)/2)
	}
	if cap(ws.padded) < len(v)+2*padding {
		ws.padded = make([]float64, len(v)+2*padding)
	}
	levels, buf := ws.levels[:cap(ws.levels)], ws.samples[:samples]
	take := func(m int) []float64 {
		b := buf[:m:m]
		buf = buf[m:]
		return b
	}

	base := v
	stride := 1
	for o := range octaves {
		m := len(base)
		oct := Octave{Index: o, Stride: stride}
		// Gaussian levels: s+3 so that s+2 DoGs exist and extrema can be
		// sought with one neighbour level on each side for s interior DoGs.
		oct.Gauss = levels[:numGauss:numGauss]
		oct.DoG = levels[numGauss : 2*numGauss-1 : 2*numGauss-1]
		levels = levels[2*numGauss-1:]
		// One padding of the base, as wide as the widest kernel's radius,
		// serves every level: level l reads it from padding−r_l on.
		padded := padEdges(ws.padded[:m+2*padding], base, padding)
		for l := range oct.Gauss {
			values := take(m)
			r := len(kernels[l]) / 2
			convolvePadded(values, padded[padding-r:padding+m+r], kernels[l])
			oct.Gauss[l] = Level{Values: values, Sigma: sigmas[l] * float64(stride)}
		}
		for l := range oct.DoG {
			a, b := oct.Gauss[l], oct.Gauss[l+1]
			diff := take(m)
			for i := range diff {
				diff[i] = b.Values[i] - a.Values[i]
			}
			oct.DoG[l] = Level{Values: diff, Sigma: a.Sigma}
		}
		ws.octaves[o] = oct
		if o+1 < octaves {
			// Seed the next octave from the level whose scale doubled the
			// base (level s), keeping every second sample ("picking every
			// second pixel", §3.1.2).
			base = take((m + 1) / 2)
			for i := range base {
				base[i] = oct.Gauss[s].Values[2*i]
			}
			stride *= 2
		}
	}
	ws.pyr = Pyramid{Octaves: ws.octaves[:octaves:octaves], Cfg: cfg, N: len(v)}
	return &ws.pyr, nil
}

// gaussKernels returns the kernels and the octave-relative scales of the
// s+3 Gaussian levels of an octave under cfg (defaulted). They depend on
// the base scale and the level only, so every octave of every series
// built under one configuration shares them; ws rebuilds them when the
// configuration changes.
func (ws *Workspace) gaussKernels(cfg Config) (kernels [][]float64, sigmas []float64) {
	if ws.kernels != nil && math.Float64bits(ws.kernelSigma) == math.Float64bits(cfg.BaseSigma) && ws.kernelLevels == cfg.Levels {
		return ws.kernels, ws.sigmas
	}
	kappa := math.Pow(2, 1/float64(cfg.Levels))
	ws.kernels = make([][]float64, cfg.Levels+3)
	ws.sigmas = make([]float64, cfg.Levels+3)
	for l := range ws.kernels {
		ws.sigmas[l] = cfg.BaseSigma * math.Pow(kappa, float64(l))
		ws.kernels[l] = Kernel(ws.sigmas[l])
	}
	ws.kernelSigma, ws.kernelLevels = cfg.BaseSigma, cfg.Levels
	return ws.kernels, ws.sigmas
}
