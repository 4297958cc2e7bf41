package band

import (
	"testing"

	"sdtw/internal/match"
)

// TestEnvelopeRadiusCoversBuiltBands is the geometry contract behind the
// retrieval cascade's exactness: for every strategy and a spread of grid
// sizes and widths, every cell of a band actually built by this
// package stays within the diagonal window EnvelopeRadius promises.
// If a builder's constants change (radius rounding, width defaults,
// clamp order), this fails before the public Index can silently drop
// true nearest neighbours.
func TestEnvelopeRadiusCoversBuiltBands(t *testing.T) {
	configs := []Config{
		{Strategy: FullGrid},
		{Strategy: FixedCoreFixedWidth, WidthFrac: 0.06},
		{Strategy: FixedCoreFixedWidth, WidthFrac: 0.10},
		{Strategy: FixedCoreFixedWidth, WidthFrac: 0.20},
		{Strategy: FixedCoreFixedWidth, WidthFrac: 1},
		Window(0),
		Window(3),
		{Strategy: FixedCoreAdaptiveWidth},
		{Strategy: AdaptiveCoreFixedWidth},
		{Strategy: AdaptiveCoreAdaptiveWidth},
		{Strategy: AdaptiveCoreAdaptiveWidthAvg, Symmetric: true},
	}
	// Alignments to build against: the boundary-free one, which every
	// fixed-core strategy uses and (ac,aw) and (ac2,aw) build their 20 %
	// fallback band from, plus a skewed partition so adaptive widths vary.
	alignments := func(m int) []*match.Alignment {
		plain := &match.Alignment{NX: m, NY: m}
		skew := &match.Alignment{
			NX: m, NY: m,
			BoundsX: []int{m / 5, m / 2},
			BoundsY: []int{m / 2, 4 * m / 5},
		}
		return []*match.Alignment{plain, skew}
	}
	for _, m := range []int{8, 40, 97, 150} {
		for _, cfg := range configs {
			r := EnvelopeRadius(cfg, m)
			for ai, al := range alignments(m) {
				b, err := Build(al, cfg)
				if err != nil {
					t.Fatalf("m=%d %v align=%d: %v", m, cfg.Strategy, ai, err)
				}
				for i := 0; i < len(b.Lo); i++ {
					for _, j := range []int{b.Lo[i], b.Hi[i]} {
						if j < i-r || j > i+r {
							t.Fatalf("m=%d %v w=%g align=%d: cell (%d,%d) outside radius %d",
								m, cfg.Strategy, cfg.WidthFrac, ai, i, j, r)
						}
					}
				}
			}
		}
	}
	// A window's envelope is its radius, with no column added, and a
	// negative radius is the diagonal.
	for _, r := range []int{0, 3, 12} {
		if got := EnvelopeRadius(Window(r), 100); got != r {
			t.Fatalf("Window(%d) envelope radius %d, want %d", r, got, r)
		}
	}
	if got := EnvelopeRadius(Window(-2), 100); got != 0 {
		t.Fatalf("Window(-2) envelope radius %d, want 0", got)
	}
	// Adaptive-core strategies must get the full-grid radius: their band
	// can legitimately reach any cell.
	for _, s := range []Strategy{AdaptiveCoreFixedWidth, AdaptiveCoreAdaptiveWidth, AdaptiveCoreAdaptiveWidthAvg} {
		if r := EnvelopeRadius(Config{Strategy: s}, 100); r != 100 {
			t.Fatalf("%v envelope radius %d, want full grid 100", s, r)
		}
	}
}
