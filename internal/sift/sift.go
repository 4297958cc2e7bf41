// Package sift detects salient features on 1-D time series and extracts
// their descriptors, implementing the SIFT adaptation of paper §3.1.2.
//
// Detection searches the difference-of-Gaussians scale space (package
// scalespace) for points that are — up to the paper's (1−ε) relaxation —
// extrema with respect to their two temporal neighbours at the same scale
// and their three neighbours in the scales directly above and below.
// Each surviving keypoint carries its temporal position, its scale σ, a
// scope of radius 3σ, and a gradient-histogram descriptor of configurable
// length (2·cells bins: positive and negative gradient energy per cell,
// paper Fig 5b).
package sift

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"sdtw/internal/scalespace"
)

// ScaleClass buckets features by temporal scale for reporting (paper
// Table 2 reports per-data-set counts at fine/medium/rough scales).
type ScaleClass int

const (
	// Fine features live in the first octave (original resolution).
	Fine ScaleClass = iota
	// Medium features live in the second octave.
	Medium
	// Rough features live in the third and coarser octaves.
	Rough
)

// String implements fmt.Stringer.
func (c ScaleClass) String() string {
	switch c {
	case Fine:
		return "fine"
	case Medium:
		return "medium"
	case Rough:
		return "rough"
	default:
		return fmt.Sprintf("ScaleClass(%d)", int(c))
	}
}

// Feature is one salient point detected on a series.
type Feature struct {
	// X is the temporal position in original-series samples.
	X int
	// Sigma is the detection scale in original-series samples.
	Sigma float64
	// Octave and Level locate the feature in the pyramid (DoG level).
	Octave, Level int
	// Response is the DoG value at the feature; its sign distinguishes
	// peak-like (positive) from dip-like (negative) features.
	Response float64
	// Scope is the temporal radius 3σ covered by the feature (§3.1.2).
	Scope float64
	// Amplitude is the mean series value within the feature's scope, used
	// by the matcher's τa threshold and ∆amp similarity term (§3.2).
	Amplitude float64
	// Descriptor is the normalised gradient histogram (len = 2·cells). The
	// descriptors of one Extract call are consecutive sub-slices of a
	// single block, in feature order, so a matcher scanning a series'
	// features walks contiguous memory.
	Descriptor []float64
}

// Start returns the first sample covered by the feature's scope, clamped
// to the series.
func (f Feature) Start(n int) int {
	s := f.X - int(math.Round(f.Scope))
	if s < 0 {
		s = 0
	}
	if s >= n {
		s = n - 1
	}
	return s
}

// End returns the last sample covered by the feature's scope, clamped to
// the series.
func (f Feature) End(n int) int {
	e := f.X + int(math.Round(f.Scope))
	if e >= n {
		e = n - 1
	}
	if e < 0 {
		e = 0
	}
	return e
}

// Class returns the scale bucket of the feature.
func (f Feature) Class() ScaleClass {
	switch {
	case f.Octave == 0:
		return Fine
	case f.Octave == 1:
		return Medium
	default:
		return Rough
	}
}

// Config controls detection and description: the knobs a program sets.
// The zero value selects the paper's defaults, with descriptors that are
// not amplitude-invariant.
type Config struct {
	// Scale space construction; see scalespace.Config.
	ScaleSpace scalespace.Config
	// DescriptorBins is the descriptor length (2·cells). The paper sweeps
	// 4..128 and defaults to 64. Zero means 64. Must be even and >= 2.
	DescriptorBins int
	// AmplitudeInvariant, when true (the default via DefaultConfig),
	// normalises descriptors to unit length so that uniform amplitude
	// scaling of the series leaves descriptors unchanged. §3.1.2 notes
	// each invariance can be toggled independently.
	AmplitudeInvariant bool
}

// The fixed detection and description parameters.
const (
	// epsilon is the relaxation of the extremum test: a point survives if
	// it is at least (1−ε)× every neighbour (§3.1.2).
	//
	// Calibration note: the paper reports ε as "0.96%". Read literally
	// (0.0096) the relaxed test is nearly strict and detects an order of
	// magnitude fewer features than the paper's Table 2; read as 0.96 it
	// accepts nearly every grid position, reproducing Table 2's absolute
	// counts but making matching quadratically expensive, contradicting
	// §3.4's |S_X| ≪ N assumption. 0.10 lands feature populations in the
	// tens per series, preserving both Table 2's fine/medium/rough
	// profile and the complexity argument.
	epsilon = 0.10
	// contrastThreshold discards keypoints whose |DoG| response is below
	// this fraction of the largest response in the series, mirroring
	// SIFT's low-contrast filtering (§3.1.1 step 2).
	contrastThreshold = 0.01
	// cellWidth is the number of octave-resolution samples per descriptor
	// cell (SIFT uses 4 pixels per cell).
	cellWidth = 4
	// maxFeatures caps the number of features kept per series. When the
	// detector finds more, the strongest by |DoG response| survive, with
	// each octave retaining a proportional share so coarse evidence is
	// never starved by fine-scale noise. Keeping |S_X| ≪ N preserves the
	// paper's §3.4 complexity argument (matching far cheaper than the
	// grid fill).
	maxFeatures = 48
)

// DefaultConfig returns the repository's default configuration: 64-bin
// amplitude-invariant descriptors as in the paper's experiments.
func DefaultConfig() Config {
	return Config{
		DescriptorBins:     64,
		AmplitudeInvariant: true,
	}
}

func (c Config) withDefaults() (Config, error) {
	if c.DescriptorBins == 0 {
		c.DescriptorBins = 64
	}
	if c.DescriptorBins < 2 || c.DescriptorBins%2 != 0 {
		return c, fmt.Errorf("sift: DescriptorBins must be even and >= 2, got %d", c.DescriptorBins)
	}
	return c, nil
}

// Extract detects salient features on v and computes their descriptors.
// Features are returned sorted by temporal position.
//
// The scale-space pyramid is built in a pooled workspace, so a call
// allocates only what it returns: the features and their descriptor
// block.
func Extract(v []float64, cfg Config) ([]Feature, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	pyr, err := ws.pyramid.Build(v, cfg.ScaleSpace)
	if err != nil {
		return nil, err
	}
	return ws.extract(v, pyr, cfg), nil
}

// ExtractFromPyramid runs detection and description over an existing
// pyramid, allowing callers that need the pyramid for other purposes to
// avoid rebuilding it.
func ExtractFromPyramid(v []float64, pyr *scalespace.Pyramid, cfg Config) ([]Feature, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	return ws.extract(v, pyr, cfg), nil
}

// workspace is the scratch of one extraction: the pyramid's buffers, the
// detected keypoints before the cap, and the descriptor window's
// Gaussian weights.
type workspace struct {
	pyramid scalespace.Workspace
	feats   []Feature
	weights []float64
}

// workspaces recycles extraction scratch across calls and goroutines.
var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// extract runs detection and description over pyr under the defaulted
// cfg. The features and their descriptor block are fresh allocations;
// everything else is ws's.
func (ws *workspace) extract(v []float64, pyr *scalespace.Pyramid, cfg Config) []Feature {
	minResp := contrastThreshold * maxAbsDoG(pyr)
	feats := ws.feats[:0]
	for _, oct := range pyr.Octaves {
		// Interior DoG levels have scale neighbours on both sides.
		for l := 1; l+1 < len(oct.DoG); l++ {
			d := oct.DoG[l].Values
			below := oct.DoG[l-1].Values
			above := oct.DoG[l+1].Values
			for i := 1; i+1 < len(d); i++ {
				val := d[i]
				if math.Abs(val) < minResp {
					continue
				}
				if !isRelaxedExtremum(val, i, d, below, above) {
					continue
				}
				f := Feature{
					X:        i * oct.Stride,
					Sigma:    oct.DoG[l].Sigma,
					Octave:   oct.Index,
					Level:    l,
					Response: val,
				}
				f.Scope = 3 * f.Sigma
				feats = append(feats, f)
			}
		}
	}
	ws.feats = feats
	if len(feats) == 0 {
		return nil
	}
	feats = capFeatures(feats, maxFeatures)
	slices.SortFunc(feats, func(a, b Feature) int {
		if a.X != b.X {
			return cmp.Compare(a.X, b.X)
		}
		return compareLess(a.Sigma, b.Sigma)
	})
	// Measure and describe only the survivors, in their final order, with
	// the descriptors in one block: one allocation per series instead of
	// one per detected keypoint, and the layout the matcher's blocked
	// distance kernel reads sequentially.
	bins := cfg.DescriptorBins
	out := make([]Feature, len(feats))
	block := make([]float64, len(feats)*bins)
	weights := ws.windowWeights(cfg)
	for k, f := range feats {
		oct := &pyr.Octaves[f.Octave] // Octaves[o].Index == o by construction
		f.Amplitude = scopeAmplitude(v, f)
		f.Descriptor = block[k*bins : (k+1)*bins : (k+1)*bins]
		describe(f.Descriptor, oct.Gauss[f.Level].Values, f.X/oct.Stride, weights, cfg)
		out[k] = f
	}
	return out
}

// compareLess orders a before b exactly when a < b, and otherwise
// reports them equal: the order of a less function on floats, NaN
// included, as a three-way comparison.
func compareLess(a, b float64) int {
	switch {
	case a < b:
		return -1
	case b < a:
		return 1
	}
	return 0
}

// capFeatures keeps at most limit features, allocating each octave a share
// proportional to its detected population (at least one per non-empty
// octave) and keeping the strongest |Response| within each octave. The
// features arrive grouped by octave in ascending order, as detection
// emits them; each group is ranked in place and its kept head moved down
// over the dropped tails before it.
func capFeatures(feats []Feature, limit int) []Feature {
	if len(feats) <= limit {
		return feats
	}
	total := len(feats)
	kept := feats[:0]
	for start := 0; start < total; {
		end := start + 1
		for end < total && feats[end].Octave == feats[start].Octave {
			end++
		}
		group := feats[start:end]
		quota := min(max(limit*len(group)/total, 1), len(group))
		slices.SortFunc(group, func(a, b Feature) int {
			return compareLess(math.Abs(b.Response), math.Abs(a.Response))
		})
		kept = append(kept, group[:quota]...)
		start = end
	}
	return kept
}

// isRelaxedExtremum applies the paper's relaxed extremum test at position i
// of DoG level d with scale neighbours below/above: the point is accepted
// when it is a maximum (or, symmetrically, a minimum) relative to all eight
// neighbours up to the (1−ε) slack.
func isRelaxedExtremum(val float64, i int, d, below, above []float64) bool {
	if val == 0 || math.IsNaN(val) {
		return false // neither a peak nor a dip
	}
	const slack = 1 - epsilon
	ok := true
	for off := -1; off <= 1 && ok; off++ {
		j := i + off
		if off != 0 {
			ok = extremumAgainst(val, d[j], slack)
		}
		if ok && j >= 0 && j < len(below) {
			ok = extremumAgainst(val, below[j], slack)
		}
		if ok && j >= 0 && j < len(above) {
			ok = extremumAgainst(val, above[j], slack)
		}
	}
	return ok
}

// extremumAgainst reports whether val, positive or negative, passes the
// relaxed test against one neighbour nb: a positive val must be at least
// slack·nb when nb is positive, and simply at least nb otherwise (slack
// would make the test easier in the wrong direction); a negative val is
// tested as the mirrored minimum.
func extremumAgainst(val, nb, slack float64) bool {
	if val > 0 {
		if nb > 0 {
			return !(val < slack*nb)
		}
		return !(val < nb)
	}
	if nb < 0 {
		return !(val > slack*nb)
	}
	return !(val > nb)
}

// windowWeights returns the Gaussian weight of each of the window's
// samples under cfg, window offset t at index t+half: the expression
// describe evaluated per sample, evaluated once per call.
func (ws *workspace) windowWeights(cfg Config) []float64 {
	window := cfg.DescriptorBins / 2 * cellWidth
	half := window / 2
	// Gaussian weighting with σ = half the window, as in SIFT.
	wSigma := float64(window) / 2
	w := slices.Grow(ws.weights[:0], window)[:window]
	for t := -half; t < window-half; t++ {
		w[t+half] = math.Exp(-0.5 * float64(t*t) / (wSigma * wSigma))
	}
	ws.weights = w
	return w
}

// describe builds, into the zeroed desc (len = DescriptorBins), the
// gradient-histogram descriptor around sample i of the octave-resolution
// smoothed series g (paper §3.1.2 step 2, Fig 5b).
// The window spans cells·cellWidth samples centred at i; each cell
// accumulates Gaussian-weighted (weights, see windowWeights) positive
// gradient magnitude into its first bin and negative magnitude into its
// second.
func describe(desc, g []float64, i int, weights []float64, cfg Config) {
	if len(g) < 3 {
		return
	}
	lo := i - len(weights)/2 // the window's first sample
	for u, w := range weights {
		grad := gradientAt(g, lo+u)
		cell := u / cellWidth
		if grad >= 0 {
			desc[2*cell] += float64(w * grad)
		} else {
			desc[2*cell+1] += float64(w * (-grad))
		}
	}
	if cfg.AmplitudeInvariant {
		normalize(desc)
	}
}

// gradientAt returns the central-difference gradient of g at pos with
// clamp-to-edge behaviour. Positions outside the series clamp to the
// nearest edge, where the gradient degenerates to a one-sided difference
// or zero; descriptor windows near boundaries therefore fade out rather
// than wrap or panic.
func gradientAt(g []float64, pos int) float64 {
	n := len(g)
	if pos < 0 {
		pos = 0
	} else if pos >= n {
		pos = n - 1
	}
	lo, hi := pos-1, pos+1
	if lo < 0 {
		lo = 0
	}
	if hi >= n {
		hi = n - 1
	}
	if hi == lo {
		return 0
	}
	return (g[hi] - g[lo]) / float64(hi-lo)
}

func normalize(v []float64) {
	ss := 0.0
	for _, x := range v {
		ss += float64(x * x)
	}
	if ss == 0 {
		return
	}
	inv := 1 / math.Sqrt(ss)
	for i := range v {
		v[i] *= inv
	}
}

// scopeAmplitude computes the mean of the original series over the
// feature's scope.
func scopeAmplitude(v []float64, f Feature) float64 {
	s, e := f.Start(len(v)), f.End(len(v))
	sum := 0.0
	for i := s; i <= e; i++ {
		sum += v[i]
	}
	return sum / float64(e-s+1)
}

func maxAbsDoG(pyr *scalespace.Pyramid) float64 {
	maxAbs := 0.0
	for _, oct := range pyr.Octaves {
		for _, lvl := range oct.DoG {
			for _, x := range lvl.Values {
				if a := math.Abs(x); a > maxAbs {
					maxAbs = a
				}
			}
		}
	}
	return maxAbs
}

// DescriptorDistanceSqAbandon returns the squared Euclidean descriptor
// distance, abandoning with +Inf once the partial sum exceeds cutoffSq.
// Working in squared space lets nearest-neighbour scans avoid sqrt
// entirely.
func DescriptorDistanceSqAbandon(a, b []float64, cutoffSq float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	ss := 0.0
	// Process in chunks of 8 between abandonment checks: the comparison
	// itself costs as much as the arithmetic on short descriptors.
	i := 0
	for ; i+8 <= len(a); i += 8 {
		for k := i; k < i+8; k++ {
			d := a[k] - b[k]
			ss += float64(d * d)
		}
		if ss > cutoffSq {
			return math.Inf(1)
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		ss += float64(d * d)
	}
	if ss > cutoffSq {
		return math.Inf(1)
	}
	return ss
}

// CountByClass tallies features per scale class, the statistic of Table 2.
func CountByClass(feats []Feature) map[ScaleClass]int {
	counts := make(map[ScaleClass]int, 3)
	for _, f := range feats {
		counts[f.Class()]++
	}
	return counts
}
