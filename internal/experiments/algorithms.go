// Package experiments contains one runner per table and figure of the
// paper's evaluation section (§4). Each runner generates (or accepts) a
// workload, computes the reference full-DTW distance matrix and the
// constrained matrices of every algorithm under test, and reports the
// paper's measures: top-k retrieval accuracy, distance error, intra-class
// error, kNN classification agreement, time gain (wall clock) and cells
// gain (machine-independent). The runners are shared by cmd/sdtwbench and
// the repository's benchmark suite.
package experiments

import (
	"sdtw/internal/band"
	"sdtw/internal/core"
	"sdtw/internal/match"
	"sdtw/internal/sift"
)

// Algorithm is one constrained-DTW configuration under test, labeled as in
// the paper's figures (e.g. "fc,fw 10%").
type Algorithm struct {
	Name string
	Opts core.Options
}

// NewAlgorithm builds an algorithm from a band configuration with the
// paper's default feature and matcher settings.
func NewAlgorithm(name string, bandCfg band.Config) Algorithm {
	return Algorithm{
		Name: name,
		Opts: core.Options{
			Band:     bandCfg,
			Features: sift.DefaultConfig(),
			Matcher:  match.DefaultConfig(),
		},
	}
}

// WithDescriptorBins returns a copy of the algorithm using the given
// descriptor length, for the Fig 18 sweep.
func (a Algorithm) WithDescriptorBins(bins int) Algorithm {
	a.Opts.Features.DescriptorBins = bins
	return a
}

// StandardAlgorithms returns the algorithm grid of Figures 13–17:
// (fc,fw) at 6/10/20%, (fc,aw) with the 20% lower bound, (ac,fw) at
// 6/10/20%, (ac,aw) and (ac2,aw). Full DTW is the reference, not a member.
func StandardAlgorithms() []Algorithm {
	return []Algorithm{
		NewAlgorithm("fc,fw 6%", band.Config{Strategy: band.FixedCoreFixedWidth, WidthFrac: 0.06}),
		NewAlgorithm("fc,fw 10%", band.Config{Strategy: band.FixedCoreFixedWidth, WidthFrac: 0.10}),
		NewAlgorithm("fc,fw 20%", band.Config{Strategy: band.FixedCoreFixedWidth, WidthFrac: 0.20}),
		NewAlgorithm("fc,aw", band.Config{Strategy: band.FixedCoreAdaptiveWidth}),
		NewAlgorithm("ac,fw 6%", band.Config{Strategy: band.AdaptiveCoreFixedWidth, WidthFrac: 0.06}),
		NewAlgorithm("ac,fw 10%", band.Config{Strategy: band.AdaptiveCoreFixedWidth, WidthFrac: 0.10}),
		NewAlgorithm("ac,fw 20%", band.Config{Strategy: band.AdaptiveCoreFixedWidth, WidthFrac: 0.20}),
		NewAlgorithm("ac,aw", band.Config{Strategy: band.AdaptiveCoreAdaptiveWidth}),
		NewAlgorithm("ac2,aw", band.Config{Strategy: band.AdaptiveCoreAdaptiveWidthAvg}),
	}
}

// AdaptiveAlgorithms returns the subset with matching overhead, used by
// Fig 17 (time breakdown) and Fig 18 (descriptor sweep).
func AdaptiveAlgorithms() []Algorithm {
	return []Algorithm{
		NewAlgorithm("ac,fw 10%", band.Config{Strategy: band.AdaptiveCoreFixedWidth, WidthFrac: 0.10}),
		NewAlgorithm("fc,aw", band.Config{Strategy: band.FixedCoreAdaptiveWidth}),
		NewAlgorithm("ac,aw", band.Config{Strategy: band.AdaptiveCoreAdaptiveWidth}),
		NewAlgorithm("ac2,aw", band.Config{Strategy: band.AdaptiveCoreAdaptiveWidthAvg}),
	}
}
