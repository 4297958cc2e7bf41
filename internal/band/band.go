// Package band computes the locally relevant DTW constraints of paper
// §3.3 from a consistent salient-feature alignment: the five band
// strategies (fc,fw), (fc,aw), (ac,fw), (ac,aw) and (ac2,aw), the
// empty-interval handling, width bounds, and the symmetric band union of
// §3.3.3. Bands are emitted in the representation consumed by the
// constrained dynamic program of package dtw.
package band

import (
	"fmt"
	"math"

	"sdtw/internal/dtw"
	"sdtw/internal/match"
)

// Strategy selects how the band core and width are derived.
type Strategy int

const (
	// FullGrid disables pruning: the band covers the whole grid.
	FullGrid Strategy = iota
	// FixedCoreFixedWidth is the Sakoe-Chiba band (paper Fig 10a).
	FixedCoreFixedWidth
	// FixedCoreAdaptiveWidth keeps the diagonal core but adapts the width
	// to the local interval sizes (Fig 10c).
	FixedCoreAdaptiveWidth
	// AdaptiveCoreFixedWidth follows the structural alignment with a
	// fixed width (Fig 10b).
	AdaptiveCoreFixedWidth
	// AdaptiveCoreAdaptiveWidth adapts both (Fig 10d).
	AdaptiveCoreAdaptiveWidth
	// AdaptiveCoreAdaptiveWidthAvg is the paper's second adaptive-width
	// variant (ac2,aw): the width averages the sizes of the previous,
	// current and next intervals, useful on noisy series (§3.3.1).
	AdaptiveCoreAdaptiveWidthAvg
)

// String implements fmt.Stringer using the paper's labels.
func (s Strategy) String() string {
	switch s {
	case FullGrid:
		return "dtw"
	case FixedCoreFixedWidth:
		return "fc,fw"
	case FixedCoreAdaptiveWidth:
		return "fc,aw"
	case AdaptiveCoreFixedWidth:
		return "ac,fw"
	case AdaptiveCoreAdaptiveWidth:
		return "ac,aw"
	case AdaptiveCoreAdaptiveWidthAvg:
		return "ac2,aw"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// AdaptiveCore reports whether the strategy derives its core from salient
// feature alignments (and therefore needs feature matching).
func (s Strategy) AdaptiveCore() bool {
	switch s {
	case AdaptiveCoreFixedWidth, AdaptiveCoreAdaptiveWidth, AdaptiveCoreAdaptiveWidthAvg:
		return true
	}
	return false
}

// AdaptiveWidth reports whether the strategy derives its width from the
// interval partition.
func (s Strategy) AdaptiveWidth() bool {
	switch s {
	case FixedCoreAdaptiveWidth, AdaptiveCoreAdaptiveWidth, AdaptiveCoreAdaptiveWidthAvg:
		return true
	}
	return false
}

// NeedsAlignment reports whether the strategy's band is a function of the
// salient-feature alignment. When false no features need extracting or
// matching: the band depends on the grid dimensions alone.
func (s Strategy) NeedsAlignment() bool {
	return s.AdaptiveCore() || s.AdaptiveWidth()
}

// valid reports whether s is one of the six declared strategies.
func (s Strategy) valid() bool {
	return s >= FullGrid && s <= AdaptiveCoreAdaptiveWidthAvg
}

// Config parameterises band construction.
type Config struct {
	// Strategy selects the band type.
	Strategy Strategy
	// WidthFrac is w for fixed-width strategies: each point of X is
	// compared against WidthFrac·M points of Y (the paper sweeps 6%, 10%,
	// 20%). Zero means 0.10.
	WidthFrac float64
	// Symmetric, when true, unions this band with the transposed band
	// built with the roles of X and Y switched (§3.3.3), making the
	// resulting distance symmetric.
	Symmetric bool

	// window is 1 + the (fc,fw) radius in samples that Window sets, which
	// then sizes the band in place of WidthFrac; 0 leaves it to WidthFrac.
	window int
}

// Window returns the (fc,fw) configuration whose band is the Sakoe-Chiba
// window of radius r samples around the scaled diagonal
// (dtw.SakoeChibaRadius), and whose EnvelopeRadius is exactly r: the
// constraint of exact windowed-DTW retrieval, where an envelope one
// column narrower than the band would drop true neighbours. r = 0 is the
// diagonal; a negative r means 0.
func Window(r int) Config {
	return Config{Strategy: FixedCoreFixedWidth, window: max(r, 0) + 1}
}

// The fixed adaptive-width parameters.
const (
	// minWidthFrac is the paper's §4.3 lower bound on adaptive widths,
	// 20 % of M, under every adaptive-width strategy. Without it a row
	// between two close boundaries of an adaptive core is a few columns
	// wide and pins the warp path to the anchor. It is also the width of
	// the band the adaptive-core, adaptive-width strategies fall back to
	// (see fallsBack).
	minWidthFrac = 0.20
	// neighborRadius is r for AdaptiveCoreAdaptiveWidthAvg: the width
	// averages the sizes of the r intervals on each side of the current
	// one (previous, current, next — the paper's ac2,aw).
	neighborRadius = 1
)

func (c Config) withDefaults() Config {
	if c.WidthFrac <= 0 {
		c.WidthFrac = 0.10
	}
	if c.WidthFrac > 1 {
		c.WidthFrac = 1
	}
	return c
}

// fallsBack reports whether c builds the fallback band, not its own,
// for an alignment with no boundaries: the adaptive-core, adaptive-width
// strategies do. With nothing matched, their core is the diagonal and
// their one interval the whole grid, so their own band would be the
// full grid. (ac,fw) keeps its diagonal band at its own width, and
// (fc,aw) its full-interval one.
func (c Config) fallsBack() bool {
	return c.Strategy.AdaptiveCore() && c.Strategy.AdaptiveWidth()
}

// ResolvedWidth returns the width fraction the builders read under c —
// WidthFrac as withDefaults resolves it — and false for a strategy that
// reads none (FullGrid and the adaptive-width strategies). Two configs
// equal but for WidthFrac build the same bands exactly when their
// ResolvedWidth results are equal.
func (c Config) ResolvedWidth() (float64, bool) {
	if c.Strategy == FullGrid || c.Strategy.AdaptiveWidth() {
		return 0, false
	}
	return c.withDefaults().WidthFrac, true
}

// Builder constructs bands, reusing internal scratch buffers across calls.
// The zero value is ready to use. A Builder must not be used concurrently;
// use one per goroutine (they are cheap).
//
// The bands a Builder returns alias its scratch storage: each is valid
// only until the next call on the same Builder. Callers that retain a band
// must Clone it.
type Builder struct {
	lo, hi, core, widths, ivalOf []int
}

func (bu *Builder) ints(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	return (*buf)[:n]
}

// Build computes the band for an alignment of X (rows, length al.NX) and Y
// (columns, length al.NY). Strategies with fixed cores and widths ignore
// the alignment (which may be nil for them). Under (ac,aw) and (ac2,aw)
// an alignment with no boundaries builds dtw.SakoeChiba(n, m, 0.20), the
// fallback band of a pair whose matching found nothing to trust. The
// returned band is normalized and therefore always admits a warp path.
// This convenience wrapper allocates; hot loops should hold a Builder.
func Build(al *match.Alignment, cfg Config) (dtw.Band, error) {
	var bu Builder
	b, err := bu.Build(al, cfg)
	if err != nil {
		return dtw.Band{}, err
	}
	return b.Clone(), nil
}

// Build computes the band for an alignment; see the package-level Build.
// The result aliases the Builder's scratch buffers.
func (bu *Builder) Build(al *match.Alignment, cfg Config) (dtw.Band, error) {
	cfg = cfg.withDefaults()
	if !cfg.Strategy.valid() {
		return dtw.Band{}, fmt.Errorf("band: unknown strategy %v", cfg.Strategy)
	}
	if al == nil && cfg.Strategy.NeedsAlignment() {
		return dtw.Band{}, fmt.Errorf("band: strategy %v requires an alignment", cfg.Strategy)
	}
	var n, m int
	if al != nil {
		n, m = al.NX, al.NY
	}
	if n <= 0 || m <= 0 {
		return dtw.Band{}, fmt.Errorf("band: grid dimensions %dx%d must be positive (nil or empty alignment?)", n, m)
	}
	switch cfg.Strategy {
	case FullGrid:
		return dtw.FullBand(n, m), nil
	case FixedCoreFixedWidth:
		if cfg.window > 0 {
			return dtw.SakoeChibaRadius(n, m, cfg.window-1), nil
		}
		return dtw.SakoeChiba(n, m, cfg.WidthFrac), nil
	}
	if len(al.BoundsX) == 0 && cfg.fallsBack() {
		// Like the (fc,fw) band it is, the fallback takes no symmetric
		// union.
		return bu.fallback(n, m), nil
	}
	b, err := bu.buildAdaptive(al, cfg)
	if err != nil {
		return dtw.Band{}, err
	}
	if cfg.Symmetric {
		// The symmetric union needs two live bands, so the reverse band
		// is built with independent storage.
		var rev dtw.Band
		var revBu Builder
		rev, err = revBu.buildAdaptive(al.Swap(), cfg)
		if err != nil {
			return dtw.Band{}, err
		}
		b.Union(rev.Transpose().Normalize())
		b.Normalize()
	}
	return b, nil
}

// fallback builds the fallback band of an n-by-m grid, the (fc,fw) band
// at minWidthFrac, in the builder's scratch: dtw.SakoeChiba(n, m,
// minWidthFrac), bit for bit, without allocating.
func (bu *Builder) fallback(n, m int) dtw.Band {
	radius := max(1, int(math.Ceil(minWidthFrac*float64(m)/2)))
	b := dtw.Band{Lo: bu.ints(&bu.lo, n), Hi: bu.ints(&bu.hi, n), M: m}
	for i := range n {
		c := dtw.DiagonalColumn(i, n, m)
		b.Lo[i], b.Hi[i] = c-radius, c+radius
	}
	return b.Normalize()
}

// buildAdaptive constructs the band for the strategies that use the
// interval partition: candidate core per §3.3.2, width per §3.3.1.
func (bu *Builder) buildAdaptive(al *match.Alignment, cfg Config) (dtw.Band, error) {
	n, m := al.NX, al.NY
	if n <= 0 || m <= 0 {
		return dtw.Band{}, fmt.Errorf("band: alignment has empty series (%d, %d)", n, m)
	}
	core := bu.coreColumns(al, cfg.Strategy.AdaptiveCore())
	widths := bu.rowWidths(al, cfg)
	b := dtw.Band{Lo: bu.ints(&bu.lo, n), Hi: bu.ints(&bu.hi, n), M: m}
	for i := 0; i < n; i++ {
		half := widths[i] / 2
		if half < 1 {
			half = 1
		}
		b.Lo[i] = core[i] - half
		b.Hi[i] = core[i] + half
	}
	return b.Normalize(), nil
}

// coreColumns returns, for every row i (point x_i), the candidate column
// j (point y_j). Adaptive cores interpolate linearly inside each matched
// interval pair per the proportionality equation of §3.3.2; fixed cores
// use the scaled diagonal.
func (bu *Builder) coreColumns(al *match.Alignment, adaptive bool) []int {
	n, m := al.NX, al.NY
	core := bu.ints(&bu.core, n)
	if !adaptive || len(al.BoundsX) == 0 {
		for i := range core {
			core[i] = dtw.DiagonalColumn(i, n, m)
		}
		return core
	}
	for t := range len(al.BoundsX) + 1 {
		sx, ex, sy, ey := interval(al, t)
		if ex < sx {
			continue
		}
		if ex == sx {
			// Empty X interval: §3.3.2 notes this may leave a gap in the
			// band; Normalize bridges it. Map the single point midway.
			core[sx] = (sy + ey) / 2
			continue
		}
		if ey == sy {
			// Empty Y interval: st(Y,E) is the candidate for every point
			// of the X interval.
			for i := sx; i <= ex; i++ {
				core[i] = sy
			}
			continue
		}
		scale := float64(ey-sy) / float64(ex-sx)
		for i := sx; i <= ex; i++ {
			core[i] = sy + int(math.Round(float64(i-sx)*scale))
		}
	}
	return core
}

// rowWidths returns the band width (in columns) for every row.
func (bu *Builder) rowWidths(al *match.Alignment, cfg Config) []int {
	n, m := al.NX, al.NY
	widths := bu.ints(&bu.widths, n)
	if !cfg.Strategy.AdaptiveWidth() {
		w := int(math.Ceil(cfg.WidthFrac * float64(m)))
		if w < 2 {
			w = 2
		}
		for i := range widths {
			widths[i] = w
		}
		return widths
	}
	// Adaptive width: w is the length of the Y interval containing the
	// candidate point of x_i — equivalently, the Y interval corresponding
	// to the X interval containing i (§3.3.1).
	intervals := len(al.BoundsX) + 1
	ivalOf := bu.ints(&bu.ivalOf, n)
	for i := range ivalOf {
		ivalOf[i] = 0
	}
	for t := range intervals {
		sx, ex, _, _ := interval(al, t)
		for i := sx; i <= ex && i < n; i++ {
			ivalOf[i] = t
		}
	}
	ylen := func(t int) int {
		_, _, sy, ey := interval(al, t)
		return max(ey-sy+1, 0)
	}
	minW := int(math.Ceil(minWidthFrac * float64(m)))
	avg := cfg.Strategy == AdaptiveCoreAdaptiveWidthAvg
	for i := 0; i < n; i++ {
		t := ivalOf[i]
		var w int
		if avg {
			sum, cnt := 0, 0
			for dt := -neighborRadius; dt <= neighborRadius; dt++ {
				if t+dt < 0 || t+dt >= intervals {
					continue
				}
				sum += ylen(t + dt)
				cnt++
			}
			if cnt > 0 {
				w = int(math.Round(float64(sum) / float64(cnt)))
			}
		} else {
			w = ylen(t)
		}
		widths[i] = max(w, minW, 2)
	}
	return widths
}

// interval returns interval t of the partition the committed boundaries
// of al induce (paper Fig 9): [sx, ex] on X and [sy, ey] on Y, inclusive,
// possibly empty when two boundaries coincide. There are
// len(al.BoundsX)+1 intervals, chained: each starts where the previous
// ends, the first at 0 and the last at NX−1 and NY−1.
func interval(al *match.Alignment, t int) (sx, ex, sy, ey int) {
	if t > 0 {
		sx, sy = al.BoundsX[t-1], al.BoundsY[t-1]
	}
	if t < len(al.BoundsX) {
		return sx, al.BoundsX[t], sy, al.BoundsY[t]
	}
	return sx, al.NX - 1, sy, al.NY - 1
}

// EnvelopeRadius returns a warping radius (in samples) such that every
// cell (i,j) of any band this package can build for an m-by-m grid under
// cfg satisfies |i-j| <= radius. Retrieval indexes use it to size the
// LB_Keogh envelopes of their lower-bound cascade: LB_Keogh at this
// radius lower-bounds the radius-windowed DTW distance, which any band
// within the window can only overestimate, keeping the cascade exact.
// It lives next to the builders so the geometry constants cannot drift
// apart silently; envelope_test.go cross-checks it against built bands.
//
// The (fc,fw) band keeps to a window around the diagonal. Every other
// strategy can reach any cell: adaptive cores follow the salient
// alignment anywhere in the grid, and an adaptive width is as wide as its
// interval, which may span the grid. Their only admissible radius is m:
// the full-width envelope, whose LB_Keogh degenerates to a global
// min/max range test that lower-bounds even unconstrained DTW.
func EnvelopeRadius(cfg Config, m int) int {
	cfg = cfg.withDefaults()
	switch {
	case cfg.Strategy != FixedCoreFixedWidth:
		return m
	case cfg.window > 0:
		// Window's radius is the band's, column for column.
		return cfg.window - 1
	default:
		// dtw.SakoeChiba places ceil(w*m/2) columns on each side of the
		// scaled diagonal.
		return int(math.Ceil(cfg.WidthFrac*float64(m)/2)) + 1
	}
}
