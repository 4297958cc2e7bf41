// Package sdtw computes dynamic time warping (DTW) distances using locally
// relevant constraints derived from salient feature alignments, a pure-Go
// reproduction of Candan, Rossini, Sapino and Wang, "sDTW: Computing DTW
// Distances using Locally Relevant Constraints based on Salient Feature
// Alignments", VLDB 2012.
//
// The package offers four levels of API:
//
//   - one-shot helpers (DTW, DTWPath, Distance) for ad-hoc
//     comparisons;
//   - Engine for comparisons with full per-stage accounting (it extracts
//     both series' salient features on every call);
//   - Index for retrieval and k-nearest-neighbour classification over a
//     mutable collection of series, paying each series' feature
//     extraction once: NewIndex serves the sDTW banded distance and
//     NewWindowedIndex exact (optionally Sakoe-Chiba-windowed) DTW, the
//     same engine at a fixed band sized in samples, and both answer
//     through the same Search(ctx, query, ...SearchOption) surface;
//   - Monitor for streaming subsequence matching: NewMonitor watches an
//     unbounded stream for occurrences of a set of query patterns via
//     SPRING-style incremental subsequence DTW — O(|query|) state and
//     O(|query|) work per pushed point — answering through
//     Push(ctx, value) / PushBatch / Flush with MonitorOptions
//     mirroring the Search idiom.
//
// Index searches run a shared lower-bound cascade (Keogh's exact-indexing
// pipeline, the paper's reference [7]): candidates are ordered by the
// cheap LB_Kim bound and discarded against a shared best-so-far threshold
// — first by LB_Kim, then by LB_Keogh on envelopes precomputed at
// indexing time — before any DTW grid work, with the survivors fanned out
// across a bounded worker pool running early-abandoning DTW against the
// same threshold. The cascade is exact for the backend's distance, every
// search reports a SearchStats record (per-stage prune counts, grid cells
// filled and saved, per-stage times), and a cancelled context stops the
// search mid-band. SearchBatch and LabelsAll run whole-dataset workloads
// through the same path; Add and Remove mutate the collection in place;
// SaveStore and OpenIndex persist the collection with its envelopes and
// sketches in a crash-safe segment store. Validation failures wrap the
// package's sentinel errors (ErrEmptySeries, ErrBadK, ...) for errors.Is.
//
// The heavy lifting lives in internal packages: dtw (the dynamic program
// and band-constrained variants), scalespace and sift (1-D scale-invariant
// salient features), match (feature pairing and inconsistency pruning),
// band (the locally relevant constraint builders), lower (the LB_Kim and
// LB_Keogh bounds) and core (the pipeline).
package sdtw

import (
	"fmt"

	"sdtw/internal/band"
	"sdtw/internal/core"
	"sdtw/internal/dtw"
	"sdtw/internal/match"
	"sdtw/internal/series"
	"sdtw/internal/sift"
)

// Strategy selects how the DTW search band is shaped, mirroring the
// paper's constraint taxonomy (§3.3, Fig 10).
type Strategy = band.Strategy

// Band strategies. FixedCoreFixedWidth is the classical Sakoe-Chiba band;
// the adaptive variants use salient-feature alignments.
const (
	FullGrid                     = band.FullGrid
	FixedCoreFixedWidth          = band.FixedCoreFixedWidth
	FixedCoreAdaptiveWidth       = band.FixedCoreAdaptiveWidth
	AdaptiveCoreFixedWidth       = band.AdaptiveCoreFixedWidth
	AdaptiveCoreAdaptiveWidth    = band.AdaptiveCoreAdaptiveWidth
	AdaptiveCoreAdaptiveWidthAvg = band.AdaptiveCoreAdaptiveWidthAvg
)

// Series is a univariate time series with identity and label metadata.
type Series = series.Series

// NewSeries wraps values with an identifier and class label. A non-empty
// ID names the series in an index: its Remove and its search results.
func NewSeries(id string, label int, values []float64) Series {
	return series.New(id, label, values)
}

// Feature is a salient point detected on a series: temporal position,
// scale, scope (3σ) and gradient descriptor.
type Feature = sift.Feature

// Path is a warp path over the DTW grid.
type Path = dtw.Path

// Step is one cell of a warp path.
type Step = dtw.Step

// Result carries a constrained distance and its accounting: the band used,
// grid cells filled, and per-stage timings.
type Result = core.Result

// Options configures an Engine, and through it an engine-backed Index or
// ShardedIndex. Salient features are extracted and matched with fixed
// settings: ε = 0.10 (calibrated; §3.1.2), 64-bin descriptors, and
// τa = 0.5, τs = 2.5, τd = 1.25 (§3.2). The point cost is always the
// squared difference (a−b)², the cost every lower bound of the Index
// cascade and the Hub's prefilter assume. Every field that changes a
// distance is in the configuration fingerprint a segment store records;
// Workers and StoreSegmentRecords are not. Every index runs the stage-0
// sketch filter at DefaultSketchWidth (an opened index at the width its
// store was written with).
type Options struct {
	// Strategy selects the band type. The zero value is FullGrid (exact
	// DTW); use DefaultOptions for the paper's (ac,aw) configuration. A
	// value outside the six declared constants is an error wherever a
	// distance is computed or an index built.
	Strategy Strategy
	// WidthFrac is the band width for fixed-width strategies as a
	// fraction of the second series' length (paper values: 0.06, 0.10,
	// 0.20). Zero means 0.10.
	WidthFrac float64
	// Symmetric unions the X-driven and Y-driven bands so the distance is
	// symmetric (§3.3.3).
	Symmetric bool
	// KeepBand copies the constraint band into Result.Band (off by
	// default to avoid a per-comparison allocation).
	KeepBand bool
	// Workers bounds the worker pool Index queries fan candidates out
	// across — the pool that also builds an index, deriving every
	// series' features and envelope in parallel. Zero means GOMAXPROCS;
	// 1 forces sequential queries and a sequential build. It does not
	// affect Engine, whose calls are parallelised by the caller.
	Workers int
	// StoreSegmentRecords caps how many records each segment of a store
	// written by SaveStore holds before it is sealed. Zero means the
	// store's default. It never changes search results and is excluded
	// from the configuration fingerprint — it only shapes the on-disk
	// segment layout.
	StoreSegmentRecords int
}

// DefaultSketchWidth is the stage-0 sketch width of every index: 16
// coefficients per envelope side keeps the sketch pass under 1/8th of a
// full LB_Keogh scan for the UCR-scale lengths the paper evaluates while
// still pruning most far candidates. The width never changes search
// results — LB_PAA is admissible at every width — so it is not part of
// the configuration fingerprint.
const DefaultSketchWidth = 16

// DefaultOptions returns the paper's headline configuration: adaptive
// core & adaptive width with 64-bin descriptors.
func DefaultOptions() Options {
	return Options{Strategy: AdaptiveCoreAdaptiveWidth}
}

// toCore lowers the public options onto the internal pipeline options,
// with the paper's extraction and matching settings.
func (o Options) toCore() core.Options {
	return core.Options{
		Band:     band.Config{Strategy: o.Strategy, WidthFrac: o.WidthFrac, Symmetric: o.Symmetric},
		Features: sift.DefaultConfig(),
		Matcher:  match.DefaultConfig(),
		KeepBand: o.KeepBand,
	}
}

// Engine computes sDTW distances. It keeps no per-series state: every
// call extracts the salient features of both sides when the strategy
// reads them. To compare repeatedly over a collection, build an Index,
// which extracts each series' features once. It is safe for concurrent
// use.
type Engine struct {
	inner *core.Engine
}

// NewEngine builds an engine from the given options.
func NewEngine(opts Options) *Engine {
	return &Engine{inner: core.NewEngine(opts.toCore())}
}

// Distance computes the constrained DTW distance between two series,
// extracting both sides' salient features (Result.ExtractTime).
func (e *Engine) Distance(x, y []float64) (Result, error) {
	return e.inner.Distance(Series{Values: x}, Series{Values: y})
}

// DistanceUnder computes the constrained distance under a pruning budget:
// the dynamic program fills only the band cells that can still come in
// at or under budget and stops at the first row that has none. A banded
// distance at or under budget is returned exactly as Distance computes
// it; one above it comes back with Result.Abandoned set and Distance the
// smallest float64 above budget — a valid lower bound on the true banded
// distance, strictly above the budget, and no tighter than that.
// Retrieval loops pass their best-so-far k-th distance so hopeless
// candidates stop after a few rows. budget = +Inf behaves exactly like
// Distance.
func (e *Engine) DistanceUnder(x, y []float64, budget float64) (Result, error) {
	return e.inner.DistanceUnder(Series{Values: x}, Series{Values: y}, budget)
}

// DistanceUnderSeries is DistanceUnder over Series. Under a Symmetric
// band the IDs take part in choosing the orientation; nothing is kept
// between calls. It goes with the benchmark edit of ROADMAP item 2c: the
// nested benchmark module calls it, and DistanceUnder covers it.
func (e *Engine) DistanceUnderSeries(x, y Series, budget float64) (Result, error) {
	return e.inner.DistanceUnder(x, y, budget)
}

// Features extracts the salient features of s. Nothing is kept: a caller
// that needs them again holds the result.
func (e *Engine) Features(s Series) ([]Feature, error) {
	return e.inner.Extract(s)
}

// Subsequence finds the contiguous region of stream whose DTW distance to
// query is minimal (open-begin, open-end alignment), reusing the engine's
// pooled DP workspaces so repeated calls allocate nothing in steady state.
// For push-based matching over an unbounded stream use a Monitor instead.
func (e *Engine) Subsequence(query, stream []float64) (SubsequenceMatch, error) {
	return e.inner.Subsequence(query, stream)
}

// Alignment reports the matched salient feature pairs and the
// corresponding scope boundaries between x and y.
type Alignment struct {
	// Pairs is the number of consistent matched pairs.
	Pairs int
	// BoundsX, BoundsY are the corresponding committed scope boundary
	// positions on the two series.
	BoundsX, BoundsY []int
}

// Align computes the consistent salient-feature alignment between two
// series without running the dynamic program.
func (e *Engine) Align(x, y Series) (Alignment, error) {
	al, err := e.inner.Align(x, y)
	if err != nil {
		return Alignment{}, err
	}
	return Alignment{Pairs: len(al.Pairs), BoundsX: al.BoundsX, BoundsY: al.BoundsY}, nil
}

// Warm extracts the features of every series once and reports the first
// failure; it keeps nothing, so it only checks that every series yields
// features. It does nothing under a strategy whose band reads no features
// (FullGrid, FixedCoreFixedWidth). It goes with the benchmark edit of
// ROADMAP item 2c: the nested benchmark module calls it. Index is the
// type that holds a collection's features (§3.4's one-time cost).
func (e *Engine) Warm(data []Series) error {
	_, _, err := e.inner.Warm(data)
	return err
}

// DTW computes the exact (unconstrained) DTW distance with squared point
// costs, the reference the paper's error measures compare against.
func DTW(x, y []float64) (float64, error) {
	return dtw.Distance(x, y, nil)
}

// DTWPath computes the exact DTW distance and the optimal warp path.
func DTWPath(x, y []float64) (float64, Path, error) {
	pr, err := dtw.DistanceWithPath(x, y)
	if err != nil {
		return 0, nil, err
	}
	return pr.Distance, pr.Path, nil
}

// Distance is a one-shot sDTW computation with the given options. For
// repeated comparisons over a collection build an Index, which extracts
// each series' salient features once.
func Distance(x, y []float64, opts Options) (Result, error) {
	return NewEngine(opts).Distance(x, y)
}

// SakoeChibaDTW computes the classical fixed-band DTW distance: each point
// of x is compared against widthFrac of y's points around the diagonal.
func SakoeChibaDTW(x, y []float64, widthFrac float64) (float64, error) {
	if len(x) == 0 || len(y) == 0 {
		return 0, fmt.Errorf("sdtw: empty input (len(x)=%d len(y)=%d): %w", len(x), len(y), ErrEmptySeries)
	}
	b := dtw.SakoeChiba(len(x), len(y), widthFrac)
	d, _, err := dtw.Banded(x, y, b)
	return d, err
}

// ExtractFeatures detects salient features on v with the paper's
// extraction settings, the ones every Engine and Index uses.
func ExtractFeatures(v []float64) ([]Feature, error) {
	return sift.Extract(v, sift.DefaultConfig())
}

// SubsequenceMatch locates the best-matching region of a long series.
type SubsequenceMatch = dtw.SubsequenceMatch
