// Package core orchestrates the full sDTW pipeline of the paper: salient
// feature extraction (package sift), feature matching with inconsistency
// pruning (package match), locally relevant constraint construction
// (package band), and band-constrained dynamic programming (package dtw).
//
// Feature extraction is a one-time, indexable cost (the paper's §3.4): the
// caller extracts each series' features once (Extract, Warm), holds them
// and hands them to DistanceUnderFeatures, as every index does; Distance
// and its variants extract both sides on every call. The engine reports
// per-stage timings and grid-cell counts so the evaluation harness can
// reproduce the paper's time-gain and cost-breakdown figures.
package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"sdtw/internal/band"
	"sdtw/internal/dtw"
	"sdtw/internal/match"
	"sdtw/internal/series"
	"sdtw/internal/sift"
)

// Options configures an Engine. The zero value selects the paper's
// defaults: (ac,aw) constraints, 64-bin descriptors, ε = 0.10 (see
// sift.Config.Epsilon's calibration note). The point cost is always the
// squared distance (a−b)², which every bound of the retrieval cascade
// assumes.
type Options struct {
	// Band selects and parameterises the constraint strategy.
	Band band.Config
	// Features configures salient feature detection and description.
	Features sift.Config
	// Matcher configures dominant-pair selection and pruning.
	Matcher match.Config
	// KeepBand, when true, copies the constraint band into Result.Band.
	// Off by default: the band is scratch storage reused across calls,
	// and retaining it would force an allocation per comparison.
	KeepBand bool
}

// minPairs is the minimum number of consistent salient pairs required
// before adaptive constraints trust the alignment; below it the band is
// built from an alignment with no boundaries. That is the (fc,fw) band at
// 20 % under (ac,aw) and (ac2,aw), and the diagonal core at the
// strategy's own width under (ac,fw) and (fc,aw). A single surviving
// pair is too easily a spurious match and would anchor the whole core.
const minPairs = 2

// DefaultOptions returns the configuration used by the paper's headline
// algorithm, adaptive core & adaptive width.
func DefaultOptions() Options {
	return Options{
		Band:     band.Config{Strategy: band.AdaptiveCoreAdaptiveWidth},
		Features: sift.DefaultConfig(),
		Matcher:  match.DefaultConfig(),
	}
}

// Result carries the outcome of one constrained distance computation along
// with the accounting the experiments need.
type Result struct {
	// Distance is the (estimated) DTW distance under the constraints.
	Distance float64
	// Band is the constraint actually used; zero unless Options.KeepBand.
	Band dtw.Band
	// CellsFilled is the number of DTW grid cells evaluated: all of the
	// band under Distance, and under DistanceUnder's budget only the cells
	// that could still come in within it (dtw.BandedAbandonWS), through
	// the row that abandoned if one did.
	CellsFilled int
	// BandCells is the total cell count of the constraint band, so
	// BandCells − CellsFilled is the work the budget saved — on a
	// computation that abandoned and, by pruning, on one that completed.
	BandCells int
	// GridCells is N·M, for computing pruning gains.
	GridCells int
	// Abandoned reports that the banded distance exceeds DistanceUnder's
	// budget: some row had no cell within it, or every row had and the
	// final cell was over. Distance is then the smallest float64 above the
	// budget — a valid lower bound on the banded distance, strictly above
	// the budget, and no tighter than that.
	Abandoned bool
	// Pairs is the number of consistent salient pairs that informed the
	// band (0 for fixed-core/fixed-width strategies).
	Pairs int
	// MatchTime is the time spent matching features and pruning
	// inconsistencies (paper task b); zero for non-adaptive strategies.
	MatchTime time.Duration
	// DPTime is the time spent filling the constrained grid (paper
	// task c).
	DPTime time.Duration
	// ExtractTime is the time this call spent extracting features; zero
	// when the caller supplied them (DistanceUnderFeatures) or the
	// strategy reads none. The paper excludes this one-time cost from
	// per-pair comparisons.
	ExtractTime time.Duration
}

// CellsGain returns the fraction of the full grid pruned away,
// 1 − CellsFilled/GridCells — the machine-independent time-gain proxy.
func (r Result) CellsGain() float64 {
	if r.GridCells == 0 {
		return 0
	}
	return 1 - float64(r.CellsFilled)/float64(r.GridCells)
}

// Engine computes sDTW distances. It is safe for concurrent use.
type Engine struct {
	opts Options

	// extractions counts the sift.Extract runs this engine has paid for.
	extractions atomic.Int64

	// scratch pools per-goroutine workspaces (matcher scratch, band
	// builder buffers and DP row buffers) so concurrent distance
	// computations allocate nothing in steady state.
	scratch sync.Pool
}

// workspace bundles the reusable per-computation buffers.
type workspace struct {
	match   match.Workspace
	builder band.Builder
	dp      dtw.Workspace

	// fixed is the last band built under a strategy that reads no
	// alignment (FullGrid, fc,fw), for the fixed.N()-by-fixed.M grid, and
	// fixedCells its cell count: such a band is a function of the grid
	// alone, so it is built once per (n, m) and not once per candidate.
	// It is dtw.Band.Validated, so it carries its widest row too, and the
	// DP does not scan its rows on every call.
	fixed      dtw.Band
	fixedCells int
}

// fixedBand returns the band of cfg, a strategy that reads no alignment,
// for an n-by-m grid with its cell count, building it only when the last
// one was for another grid. The builder it builds with serves this
// strategy alone, so the band outlives its next call.
func (ws *workspace) fixedBand(n, m int, cfg band.Config) (dtw.Band, int, error) {
	if ws.fixed.N() != n || ws.fixed.M != m {
		// Build rewrites the buffers the last band lies in: drop it first,
		// so a failed build leaves no band with a stale width behind.
		ws.fixed, ws.fixedCells = dtw.Band{}, 0
		b, err := ws.builder.Build(&match.Alignment{NX: n, NY: m}, cfg)
		if err == nil {
			b, err = b.Validated()
		}
		if err != nil {
			return dtw.Band{}, 0, err
		}
		ws.fixed, ws.fixedCells = b, b.Cells()
	}
	return ws.fixed, ws.fixedCells, nil
}

// NewEngine returns an engine with the given options.
func NewEngine(opts Options) *Engine {
	e := &Engine{opts: opts}
	e.scratch.New = func() any { return new(workspace) }
	return e
}

// Options returns a copy of the engine's options.
func (e *Engine) Options() Options { return e.opts }

// Extract runs one counted feature extraction of s. The caller holds the
// result for the life of the series, as an index keeps it beside the
// series, and hands it to DistanceUnderFeatures.
func (e *Engine) Extract(s series.Series) ([]sift.Feature, error) {
	e.extractions.Add(1)
	return sift.Extract(s.Values, e.opts.Features)
}

// Extractions reports how many feature extractions the engine has run —
// the one-time cost of §3.4, countable.
func (e *Engine) Extractions() int64 { return e.extractions.Load() }

// Warm extracts the features of every series, the paper's offline
// indexing step, and returns them in the order of data with the total
// extraction time. Under a strategy whose band reads no features every
// slice is nil and nothing is extracted.
func (e *Engine) Warm(data []series.Series) ([][]sift.Feature, time.Duration, error) {
	feats := make([][]sift.Feature, len(data))
	if !e.opts.Band.Strategy.NeedsAlignment() {
		return feats, 0, nil
	}
	start := time.Now()
	for i, s := range data {
		f, err := e.Extract(s)
		if err != nil {
			return nil, time.Since(start), fmt.Errorf("core: warming %q: %w", s.ID, err)
		}
		feats[i] = f
	}
	return feats, time.Since(start), nil
}

// Distance computes the constrained DTW distance between x and y.
//
// When the band is Symmetric (§3.3.3), the inputs are first put into a
// canonical orientation so that Distance(x, y) and Distance(y, x) run the
// identical computation: feature matching is X-driven and therefore
// direction-dependent, and the canonicalisation is what turns the
// symmetric band union into an exactly symmetric distance.
func (e *Engine) Distance(x, y series.Series) (Result, error) {
	return e.DistanceUnder(x, y, math.Inf(1))
}

// DistanceUnder is Distance under a pruning budget (exclusive): the
// dynamic program fills only the band cells that can still come in at or
// under budget, stops at the first row that has none, and returns
// Result.Abandoned=true whenever the banded distance exceeds the budget —
// with Distance the smallest float64 above the budget, a valid lower
// bound on the banded distance and nothing tighter. A distance at or
// under the budget comes back bit for bit as Distance computes it.
// Retrieval cascades pass their best-so-far k-th distance as the budget,
// so hopeless candidates stop after a few rows and the others fill the
// part of the band around their path. A budget of +Inf makes the call
// identical to Distance.
//
// It extracts the features of both sides on every call (only when the
// strategy reads them) and reports that time as Result.ExtractTime; a
// caller comparing the same series repeatedly extracts them once and
// calls DistanceUnderFeatures.
func (e *Engine) DistanceUnder(x, y series.Series, budget float64) (Result, error) {
	var fx, fy []sift.Feature
	var extract time.Duration
	if e.opts.Band.Strategy.NeedsAlignment() && x.Len() > 0 && y.Len() > 0 {
		start := time.Now()
		var err error
		if fx, err = e.Extract(x); err != nil {
			return Result{}, fmt.Errorf("core: extracting features of x: %w", err)
		}
		if fy, err = e.Extract(y); err != nil {
			return Result{}, fmt.Errorf("core: extracting features of y: %w", err)
		}
		extract = time.Since(start)
	}
	res, err := e.DistanceUnderFeatures(nil, x, fx, y, fy, budget)
	res.ExtractTime = extract
	return res, err
}

// DistanceUnderFeatures is DistanceUnder between x and y with the
// features the caller holds for them (fx and fy; nil when the band reads
// none), as Extract returned them. It extracts nothing. It is threaded
// with a context: the banded dynamic program polls ctx every few rows
// and a cancelled context stops the computation mid-band with ctx.Err().
// A nil ctx disables the polling (non-cancellable entry points pass nil
// so the DP inner loop stays identical).
func (e *Engine) DistanceUnderFeatures(ctx context.Context, x series.Series, fx []sift.Feature, y series.Series, fy []sift.Feature, budget float64) (Result, error) {
	if e.opts.Band.Symmetric && canonicalLess(y, x) {
		res, err := e.distance(ctx, y, fy, x, fx, budget)
		if err != nil {
			return res, err
		}
		if e.opts.KeepBand && res.Band.N() > 0 {
			res.Band = res.Band.Transpose().Normalize()
		}
		return res, nil
	}
	return e.distance(ctx, x, fx, y, fy, budget)
}

// canonicalLess is a deterministic total preorder on series used to pick
// the orientation of symmetric computations: shorter first, then by ID,
// then by values.
func canonicalLess(a, b series.Series) bool {
	if a.Len() != b.Len() {
		return a.Len() < b.Len()
	}
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			return a.Values[i] < b.Values[i]
		}
	}
	return false
}

func (e *Engine) distance(ctx context.Context, x series.Series, fx []sift.Feature, y series.Series, fy []sift.Feature, budget float64) (Result, error) {
	nx, ny := x.Len(), y.Len()
	if nx == 0 || ny == 0 {
		return Result{}, fmt.Errorf("core: empty series (len(x)=%d len(y)=%d)", nx, ny)
	}
	res := Result{GridCells: nx * ny}
	ws := e.scratch.Get().(*workspace)
	defer e.scratch.Put(ws)

	var b dtw.Band
	if e.opts.Band.Strategy.NeedsAlignment() {
		matchStart := monotonic()
		al, err := match.MatchWS(fx, fy, nx, ny, e.opts.Matcher, &ws.match)
		if err != nil {
			return res, fmt.Errorf("core: matching: %w", err)
		}
		res.MatchTime = monotonic() - matchStart
		res.Pairs = len(al.Pairs)
		if len(al.Pairs) < minPairs {
			// Too little evidence to trust the alignment: reset it to the
			// unpartitioned grid, whose band (see minPairs) the builder
			// fills in its scratch.
			*al = match.Alignment{NX: nx, NY: ny}
			res.Pairs = 0
		}
		if b, err = ws.builder.Build(al, e.opts.Band); err != nil {
			return res, fmt.Errorf("core: building band: %w", err)
		}
		res.BandCells = b.Cells()
	} else {
		var err error
		if b, res.BandCells, err = ws.fixedBand(nx, ny, e.opts.Band); err != nil {
			return res, fmt.Errorf("core: building band: %w", err)
		}
	}
	if e.opts.KeepBand {
		res.Band = b.Clone()
	}

	dpStart := monotonic()
	d, cells, abandoned, err := dtw.BandedAbandonCtx(ctx, x.Values, y.Values, b, budget, &ws.dp)
	if err != nil {
		return res, fmt.Errorf("core: constrained DTW: %w", err)
	}
	res.Distance, res.CellsFilled, res.Abandoned = d, cells, abandoned
	res.DPTime = monotonic() - dpStart
	return res, nil
}

// epoch anchors monotonic.
var epoch = time.Now()

// monotonic reads the monotonic clock as the time since a package-level
// epoch: the difference of two readings is the elapsed time, as with
// time.Since, but each reading is one clock read where time.Now reads the
// wall clock too. distance takes two or four per candidate pair.
func monotonic() time.Duration { return time.Since(epoch) }

// Subsequence finds the contiguous region of stream whose DTW distance
// to query is minimal (open-begin, open-end alignment), using the
// engine's pooled DP workspaces so repeated calls allocate nothing in
// steady state. The subsequence DP runs the full O(|query|·|stream|)
// recurrence — the locally relevant constraint band does not apply to
// open-begin alignments.
func (e *Engine) Subsequence(query, stream []float64) (dtw.SubsequenceMatch, error) {
	ws := e.scratch.Get().(*workspace)
	defer e.scratch.Put(ws)
	m, err := dtw.SubsequenceWS(query, stream, &ws.dp)
	if err != nil {
		return m, fmt.Errorf("core: subsequence: %w", err)
	}
	return m, nil
}

// Align exposes the feature alignment between x and y (the matched pairs
// and interval partition) without running the dynamic program, for
// visualisation and diagnostics.
func (e *Engine) Align(x, y series.Series) (*match.Alignment, error) {
	fx, err := e.Extract(x)
	if err != nil {
		return nil, err
	}
	fy, err := e.Extract(y)
	if err != nil {
		return nil, err
	}
	return match.Match(fx, fy, x.Len(), y.Len(), e.opts.Matcher)
}
