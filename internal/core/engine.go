// Package core orchestrates the full sDTW pipeline of the paper: salient
// feature extraction (package sift), feature matching with inconsistency
// pruning (package match), locally relevant constraint construction
// (package band), and band-constrained dynamic programming (package dtw).
//
// The Engine memoises per-series feature extraction — the paper's §3.4
// observes extraction is a one-time, indexable cost — and reports per-stage
// timings and grid-cell counts so the evaluation harness can reproduce the
// paper's time-gain and cost-breakdown figures.
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
	// MinPairs is the minimum number of consistent salient pairs required
	// before adaptive constraints trust the alignment; below it the band
	// falls back to the conservative default (diagonal core, full-width
	// adaptive intervals). A single surviving pair is too easily a
	// spurious match and would anchor the whole core. Zero means 2;
	// negative disables the floor.
	MinPairs int
	// ComputePath, when true, makes Distance also recover the warp path
	// (costs O(band cells) extra memory).
	ComputePath bool
	// KeepBand, when true, copies the constraint band into Result.Band.
	// Off by default: the band is scratch storage reused across calls,
	// and retaining it would force an allocation per comparison.
	KeepBand bool
	// CacheFeatures enables the per-series feature cache. Series are
	// keyed by Series.ID; unkeyed ([]float64) inputs are never cached.
	CacheFeatures bool
}

// DefaultOptions returns the configuration used by the paper's headline
// algorithm, adaptive core & adaptive width.
func DefaultOptions() Options {
	return Options{
		Band:          band.Config{Strategy: band.AdaptiveCoreAdaptiveWidth},
		Features:      sift.DefaultConfig(),
		Matcher:       match.DefaultConfig(),
		CacheFeatures: true,
	}
}

// Result carries the outcome of one constrained distance computation along
// with the accounting the experiments need.
type Result struct {
	// Distance is the (estimated) DTW distance under the constraints.
	Distance float64
	// Path is the optimal in-band warp path; nil unless ComputePath.
	Path dtw.Path
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
	// DPTime is the time spent filling the constrained grid and, when
	// requested, recovering the path (paper task c).
	DPTime time.Duration
	// ExtractTime is time spent extracting features *during this call*;
	// zero on cache hits or for non-adaptive strategies. The paper
	// excludes this one-time cost from per-pair comparisons.
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

	mu    sync.RWMutex
	cache map[string][]sift.Feature

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
}

// NewEngine returns an engine with the given options.
func NewEngine(opts Options) *Engine {
	e := &Engine{opts: opts, cache: make(map[string][]sift.Feature)}
	e.scratch.New = func() any { return new(workspace) }
	return e
}

// Options returns a copy of the engine's options.
func (e *Engine) Options() Options { return e.opts }

// Features extracts (or recalls) the salient features of s, caching them
// under s.ID: it is the collection-side entry, for series whose ID names
// them for good. A one-off query goes through Prepare instead.
func (e *Engine) Features(s series.Series) ([]sift.Feature, error) {
	if f, ok := e.cached(s.ID); ok {
		return f, nil
	}
	f, err := e.extract(s)
	if err != nil {
		return nil, err
	}
	if e.opts.CacheFeatures && s.ID != "" {
		e.mu.Lock()
		e.cache[s.ID] = f
		e.mu.Unlock()
	}
	return f, nil
}

// cached looks id up in the feature cache without filling it.
func (e *Engine) cached(id string) ([]sift.Feature, bool) {
	if !e.opts.CacheFeatures || id == "" {
		return nil, false
	}
	e.mu.RLock()
	f, ok := e.cache[id]
	e.mu.RUnlock()
	return f, ok
}

// extract runs one (counted) feature extraction, bypassing the cache.
func (e *Engine) extract(s series.Series) ([]sift.Feature, error) {
	e.extractions.Add(1)
	return sift.Extract(s.Values, e.opts.Features)
}

// Extractions reports how many feature extractions the engine has run
// (cache hits excluded) — the one-time cost of §3.4, countable.
func (e *Engine) Extractions() int64 { return e.extractions.Load() }

// Query is a series prepared for comparison against many candidates: its
// salient features are extracted once, held here for as long as the caller
// keeps the Query, and handed to every DistanceUnderQuery — instead of
// each comparison looking them up (or, for an ID-less series, extracting
// them again) through the ID-keyed collection cache. A Query is immutable
// and safe for concurrent use, with any engine of the same Options.
type Query struct {
	operand
	// ExtractTime is what preparing cost: one extraction, or a cache
	// lookup when the series is a cached member of the collection.
	ExtractTime time.Duration
}

// operand is one side of a distance computation: a series and, when
// ready, its features (nil features with ready set means the band needs
// none).
type operand struct {
	s     series.Series
	feats []sift.Feature
	ready bool
}

// Prepare readies s as a query. The collection cache is consulted
// read-only — a query that is itself a cached member reuses its features —
// and never written: a one-off query's ID must neither pin an entry in the
// cache nor stand in for a different series that later arrives under the
// same ID.
func (e *Engine) Prepare(s series.Series) (*Query, error) {
	q := &Query{operand: operand{s: s, ready: true}}
	if !e.opts.Band.Strategy.NeedsAlignment() {
		return q, nil
	}
	start := time.Now()
	f, ok := e.cached(s.ID)
	if !ok {
		var err error
		if f, err = e.extract(s); err != nil {
			return nil, fmt.Errorf("core: extracting features of the query: %w", err)
		}
	}
	q.feats = f
	q.ExtractTime = time.Since(start)
	return q, nil
}

// Warm pre-extracts and caches the features of every series, the paper's
// offline indexing step. It returns the total extraction time: zero, with
// nothing extracted, when the band strategy consumes no alignment.
func (e *Engine) Warm(data []series.Series) (time.Duration, error) {
	if !e.opts.Band.Strategy.NeedsAlignment() {
		return 0, nil
	}
	start := time.Now()
	for _, s := range data {
		if _, err := e.Features(s); err != nil {
			return time.Since(start), fmt.Errorf("core: warming %q: %w", s.ID, err)
		}
	}
	return time.Since(start), nil
}

// CacheSize reports the number of cached feature sets.
func (e *Engine) CacheSize() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.cache)
}

// Evict drops the cached features of one series ID, if present. Mutable
// indexes call it when a series leaves the collection so the cache does
// not grow monotonically under churn.
func (e *Engine) Evict(id string) {
	if id == "" {
		return
	}
	e.mu.Lock()
	delete(e.cache, id)
	e.mu.Unlock()
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
// When Options.ComputePath is set (the path needs the full band) the
// budget is ignored.
func (e *Engine) DistanceUnder(x, y series.Series, budget float64) (Result, error) {
	return e.DistanceUnderCtx(nil, x, y, budget)
}

// DistanceUnderCtx is DistanceUnder threaded with a context: the banded
// dynamic program polls ctx every few rows and a cancelled context stops
// the computation mid-band with ctx.Err(). A nil ctx disables the polling
// (retrieval hot loops pass nil from their non-cancellable entry points so
// the DP inner loop stays identical). Like the budget, the ctx is not
// consulted inside the path-recovering DP when Options.ComputePath is
// set: that branch runs its band to completion, so cancellation is only
// observed between computations.
func (e *Engine) DistanceUnderCtx(ctx context.Context, x, y series.Series, budget float64) (Result, error) {
	return e.oriented(ctx, operand{s: x}, operand{s: y}, budget)
}

// DistanceUnderQuery is DistanceUnderCtx from a prepared query to the
// candidate c, whose features come from the collection cache.
func (e *Engine) DistanceUnderQuery(ctx context.Context, q *Query, c series.Series, budget float64) (Result, error) {
	return e.oriented(ctx, q.operand, operand{s: c}, budget)
}

// oriented puts x and y into canonical orientation when the band is
// symmetric, runs the computation, and maps the result back.
func (e *Engine) oriented(ctx context.Context, x, y operand, budget float64) (Result, error) {
	if e.opts.Band.Symmetric && canonicalLess(y.s, x.s) {
		res, err := e.distance(ctx, y, x, budget)
		if err != nil {
			return res, err
		}
		for k := range res.Path {
			res.Path[k].I, res.Path[k].J = res.Path[k].J, res.Path[k].I
		}
		if e.opts.KeepBand && res.Band.N() > 0 {
			res.Band = res.Band.Transpose().Normalize()
		}
		return res, nil
	}
	return e.distance(ctx, x, y, budget)
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

// features returns o's features: the ones it carries, or the collection
// cache's (extracting and caching on a miss).
func (e *Engine) features(o operand) ([]sift.Feature, error) {
	if o.ready {
		return o.feats, nil
	}
	return e.Features(o.s)
}

func (e *Engine) distance(ctx context.Context, xo, yo operand, budget float64) (Result, error) {
	x, y := xo.s, yo.s
	nx, ny := x.Len(), y.Len()
	if nx == 0 || ny == 0 {
		return Result{}, fmt.Errorf("core: empty series (len(x)=%d len(y)=%d)", nx, ny)
	}
	res := Result{GridCells: nx * ny}
	ws := e.scratch.Get().(*workspace)
	defer e.scratch.Put(ws)

	var al *match.Alignment
	if e.opts.Band.Strategy.NeedsAlignment() {
		extractStart := time.Now()
		fx, err := e.features(xo)
		if err != nil {
			return res, fmt.Errorf("core: extracting features of x: %w", err)
		}
		fy, err := e.features(yo)
		if err != nil {
			return res, fmt.Errorf("core: extracting features of y: %w", err)
		}
		res.ExtractTime = time.Since(extractStart)

		matchStart := time.Now()
		al, err = match.MatchWS(fx, fy, nx, ny, e.opts.Matcher, &ws.match)
		if err != nil {
			return res, fmt.Errorf("core: matching: %w", err)
		}
		res.MatchTime = time.Since(matchStart)
		res.Pairs = len(al.Pairs)
		minPairs := e.opts.MinPairs
		if minPairs == 0 {
			minPairs = 2
		}
		if minPairs > 0 && len(al.Pairs) < minPairs {
			// Too little evidence to trust the alignment: fall back to an
			// unpartitioned alignment (diagonal core; adaptive widths
			// degrade to the full interval, i.e. a conservative band).
			al = &match.Alignment{NX: nx, NY: ny}
			res.Pairs = 0
		}
	} else {
		al = &match.Alignment{NX: nx, NY: ny}
	}

	b, err := ws.builder.Build(al, e.opts.Band)
	if err != nil {
		return res, fmt.Errorf("core: building band: %w", err)
	}
	if e.opts.KeepBand {
		res.Band = b.Clone()
	}
	res.BandCells = b.Cells()

	dpStart := time.Now()
	if e.opts.ComputePath {
		pr, err := dtw.BandedWithPath(x.Values, y.Values, b)
		if err != nil {
			return res, fmt.Errorf("core: constrained DTW: %w", err)
		}
		res.Distance, res.Path, res.CellsFilled = pr.Distance, pr.Path, pr.Cells
	} else {
		d, cells, abandoned, err := dtw.BandedAbandonCtx(ctx, x.Values, y.Values, b, budget, &ws.dp)
		if err != nil {
			return res, fmt.Errorf("core: constrained DTW: %w", err)
		}
		res.Distance, res.CellsFilled, res.Abandoned = d, cells, abandoned
	}
	res.DPTime = time.Since(dpStart)
	return res, nil
}

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
	fx, err := e.Features(x)
	if err != nil {
		return nil, err
	}
	fy, err := e.Features(y)
	if err != nil {
		return nil, err
	}
	return match.Match(fx, fy, x.Len(), y.Len(), e.opts.Matcher)
}
