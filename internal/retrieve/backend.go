package retrieve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sdtw/internal/band"
	"sdtw/internal/core"
	"sdtw/internal/dtw"
	"sdtw/internal/series"
)

// Result is the outcome of one backend distance computation, the
// per-candidate accounting the cascade folds into Stats.
type Result struct {
	// Distance is the backend's distance — or, when Abandoned, the
	// smallest float64 above the caller's budget: a valid lower bound on
	// the distance, and all that is known of it.
	Distance float64
	// Abandoned reports that the distance exceeds the caller's budget,
	// whether the computation stopped at a row with no cell within it or
	// ran every row and ended over it.
	Abandoned bool
	// CellsFilled is the number of DTW grid cells evaluated; BandCells is
	// the constraint band's total, so BandCells − CellsFilled is the work
	// the budget saved, by abandoning and by pruning.
	CellsFilled, BandCells int
	// MatchTime and DPTime are the backend's per-stage durations.
	MatchTime, DPTime time.Duration
}

// Query is a search's query as a backend prepared it: the series itself
// plus whatever the backend derived from it once for the whole search
// (the sDTW engine's salient features). Prepared queries carry over
// between backends of equal Fingerprint, which is how a sharded search
// prepares once and hands the same Query to every shard.
type Query struct {
	series.Series
	// ExtractTime is what the preparation cost beyond validation.
	ExtractTime time.Duration
	// engine is the engine backend's prepared form; nil for backends that
	// read nothing but the raw values.
	engine *core.Query
}

// Backend is the distance family behind an index: it owns the constraint
// geometry (and any per-series caches) while the shared cascade in Core
// owns candidate ordering, lower-bound pruning, the best-so-far
// threshold, and the worker pool. Implementations must be safe for
// concurrent Distance calls; Admit and Forget are only called under the
// Core's write lock.
//
// Every backend's distance is banded DTW under the squared point cost, so
// LB_Kim, LB_Keogh at EnvelopeRadius and the stage-0 LB_PAA sketch are
// admissible lower bounds of it and its dynamic program may abandon
// against the best-so-far threshold: the cascade runs whole for every
// backend.
//
// The two in-tree implementations are the sDTW engine (salient-feature
// banded DTW) and the Sakoe-Chiba windowed exact-DTW pipeline; the
// interface is deliberately small so further distance/constraint families
// (amerced DTW penalties, GPU-batched sDTW) can slot in without touching
// the cascade.
type Backend interface {
	// Fingerprint identifies the backend configuration for persistence:
	// two backends with equal fingerprints produce identical distances
	// over identical data.
	Fingerprint() string
	// Admit validates a series joining the collection and warms any
	// per-series caches (feature extraction, for the sDTW engine).
	Admit(s series.Series) error
	// Forget drops cached state held for a series leaving the collection.
	Forget(s series.Series)
	// Prepare validates a query against backend constraints (the windowed
	// backend requires the indexed length) and does the per-query work
	// every candidate's Distance would otherwise repeat. It must not leave
	// state behind in the backend: a query is not part of the collection.
	Prepare(q series.Series) (Query, error)
	// EnvelopeRadius returns the warping radius at which an LB_Keogh
	// envelope over a series of length m lower-bounds this backend's
	// distance.
	EnvelopeRadius(m int) int
	// Distance computes the backend distance between a prepared query and
	// a candidate with threshold-aware early abandonment against budget
	// (+Inf never abandons). A cancelled ctx stops the computation
	// mid-band with ctx.Err().
	Distance(ctx context.Context, q Query, c series.Series, budget float64) (Result, error)
}

// engineBackend serves sDTW banded distances through a shared core.Engine
// (salient-feature caching, scratch pooling, symmetric canonicalisation).
type engineBackend struct {
	engine      *core.Engine
	bandCfg     band.Config
	fingerprint string
}

// NewEngineBackend wraps an sDTW engine as a cascade backend. fingerprint
// must deterministically encode every engine option that affects
// distances (the public layer derives it from its Options).
//
// The bool parameter is ignored; it goes with the benchmark edit of
// ROADMAP item 2c: the nested benchmark module calls NewEngineBackend with
// false.
func NewEngineBackend(engine *core.Engine, fingerprint string, _ bool) Backend {
	return &engineBackend{
		engine:      engine,
		bandCfg:     engine.Options().Band,
		fingerprint: fingerprint,
	}
}

func (b *engineBackend) Fingerprint() string { return b.fingerprint }

func (b *engineBackend) Admit(s series.Series) error {
	if !b.bandCfg.Strategy.NeedsAlignment() {
		return nil
	}
	// Pay the paper's one-time indexing cost (§3.4) up front: extract and
	// cache the series' salient features so no query pays it.
	_, err := b.engine.Features(s)
	return err
}

func (b *engineBackend) Forget(s series.Series) { b.engine.Evict(s.ID) }

func (b *engineBackend) Prepare(q series.Series) (Query, error) {
	eq, err := b.engine.Prepare(q)
	if err != nil {
		return Query{}, err
	}
	return Query{Series: q, ExtractTime: eq.ExtractTime, engine: eq}, nil
}

func (b *engineBackend) EnvelopeRadius(m int) int { return band.EnvelopeRadius(b.bandCfg, m) }

func (b *engineBackend) Distance(ctx context.Context, q Query, c series.Series, budget float64) (Result, error) {
	res, err := b.engine.DistanceUnderQuery(ctx, q.engine, c, budget)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Distance:    res.Distance,
		Abandoned:   res.Abandoned,
		CellsFilled: res.CellsFilled,
		BandCells:   res.BandCells,
		MatchTime:   res.MatchTime,
		DPTime:      res.DPTime,
	}, nil
}

// windowedBackend serves exact (optionally Sakoe-Chiba-windowed) DTW over
// an equal-length collection: the classical pipeline of Keogh's exact
// indexing (the paper's reference [7]). The band is built once at exactly
// the envelope radius, which is what keeps LB_Keogh admissible for the
// windowed distance.
type windowedBackend struct {
	length    int
	radius    int // effective: length when unconstrained
	band      dtw.Band
	bandCells int
	scratch   sync.Pool // *dtw.Workspace, one per concurrent Distance
}

// NewWindowedBackend builds the windowed exact-DTW backend for series of
// the given length. radius is the Sakoe-Chiba warping window in samples;
// radius < 0 (or >= length) selects unconstrained DTW with full-width
// envelopes. The effective radius is returned alongside the backend.
func NewWindowedBackend(length, radius int) (Backend, int, error) {
	if length <= 0 {
		return nil, 0, fmt.Errorf("windowed backend needs a positive series length, got %d: %w", length, ErrEmptySeries)
	}
	if radius < 0 || radius >= length {
		radius = length // unconstrained
	}
	b := &windowedBackend{length: length, radius: radius}
	if radius < length {
		// The band must sit at exactly the envelope radius: LB_Keogh at
		// radius r does not lower-bound windowed DTW at radius r+1, and
		// deriving the band from a width fraction (whose ceil rounding
		// yields radius r+1) silently drops true nearest neighbours.
		b.band = dtw.SakoeChibaRadius(length, length, radius)
	} else {
		b.band = dtw.FullBand(length, length)
	}
	b.bandCells = b.band.Cells()
	b.scratch.New = func() any { return new(dtw.Workspace) }
	return b, radius, nil
}

func (b *windowedBackend) Fingerprint() string {
	return fmt.Sprintf("windowed/v1|len=%d|radius=%d", b.length, b.radius)
}

func (b *windowedBackend) Admit(s series.Series) error {
	if s.Len() != b.length {
		return fmt.Errorf("series %q has length %d, want %d (windowed search needs equal lengths): %w",
			s.ID, s.Len(), b.length, ErrLengthMismatch)
	}
	return nil
}

// AdmitCold is the length check for store-restored series: the metadata
// alone decides admissibility, so cold values stay on disk.
func (b *windowedBackend) AdmitCold(id string, n int) error {
	if n != b.length {
		return fmt.Errorf("series %q has length %d, want %d (windowed search needs equal lengths): %w",
			id, n, b.length, ErrLengthMismatch)
	}
	return nil
}

func (b *windowedBackend) Forget(series.Series) {}

func (b *windowedBackend) Prepare(q series.Series) (Query, error) {
	if q.Len() != b.length {
		return Query{}, fmt.Errorf("query length %d != indexed length %d: %w", q.Len(), b.length, ErrLengthMismatch)
	}
	return Query{Series: q}, nil
}

func (b *windowedBackend) EnvelopeRadius(int) int { return b.radius }

func (b *windowedBackend) Distance(ctx context.Context, q Query, c series.Series, budget float64) (Result, error) {
	ws := b.scratch.Get().(*dtw.Workspace)
	defer b.scratch.Put(ws)
	dpStart := time.Now()
	d, cells, abandoned, err := dtw.BandedAbandonCtx(ctx, q.Values, c.Values, b.band, budget, ws)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Distance:    d,
		Abandoned:   abandoned,
		CellsFilled: cells,
		BandCells:   b.bandCells,
		DPTime:      time.Since(dpStart),
	}, nil
}
