package retrieve

import (
	"context"
	"fmt"
	"time"

	"sdtw/internal/band"
	"sdtw/internal/core"
	"sdtw/internal/series"
	"sdtw/internal/sift"
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

// Query is a search's query as a core prepared it: the series itself
// plus what the backend derives from a series (the sDTW engine's salient
// features), derived once for the whole search. A prepared query carries
// over between cores of one backend, which is how a sharded search
// prepares once and hands the same Query to every shard.
type Query struct {
	series.Series
	// ExtractTime is what the preparation cost beyond validation.
	ExtractTime time.Duration
	// feats is what Admit derives from the query's values; nil for
	// backends that read nothing but the raw values.
	feats []sift.Feature
}

// Backend is the distance family behind an index: it owns the constraint
// geometry while the shared cascade in Core owns the collection (with
// what Admit derives from each series), candidate ordering, lower-bound
// pruning, the best-so-far threshold, and the worker pool. A backend
// holds no per-series state, so one serves any number of cores;
// implementations must be safe for concurrent calls.
//
// Every backend's distance is banded DTW under the squared point cost, so
// LB_Kim, LB_Keogh at EnvelopeRadius and the stage-0 LB_PAA sketch are
// admissible lower bounds of it and its dynamic program may abandon
// against the best-so-far threshold: the cascade runs whole for every
// backend.
//
// The one implementation runs a core.Engine: NewEngineBackend under any
// band strategy, NewWindowedBackend at the engine's fixed band sized in
// samples. A further constraint (an amerced-DTW penalty, say) is a band
// strategy of that engine, not a second Backend.
type Backend interface {
	// Fingerprint identifies the backend configuration for persistence:
	// two backends with equal fingerprints produce identical distances
	// over identical data.
	Fingerprint() string
	// Admit validates a series joining the collection and derives what
	// Distance reads of it besides its values, the paper's one-time
	// indexing cost (§3.4): the sDTW engine's salient features under an
	// aligning strategy, nil otherwise. The core keeps the result beside
	// the series.
	Admit(s series.Series) ([]sift.Feature, error)
	// Prepare validates a query against backend constraints (a windowed
	// backend requires the indexed length) and derives from it what Admit
	// derives from a series, once for every candidate's Distance.
	Prepare(q series.Series) (Query, error)
	// EnvelopeRadius returns the warping radius at which an LB_Keogh
	// envelope over a series of length m lower-bounds this backend's
	// distance.
	EnvelopeRadius(m int) int
	// Distance computes the backend distance between a prepared query and
	// a candidate, given what Admit derived from the candidate (cf), with
	// threshold-aware early abandonment against budget (+Inf never
	// abandons). A cancelled ctx stops the computation mid-band with
	// ctx.Err().
	Distance(ctx context.Context, q Query, c series.Series, cf []sift.Feature, budget float64) (Result, error)
}

// engineBackend serves banded distances through a shared core.Engine
// (counted extraction, scratch pooling, symmetric canonicalisation):
// the sDTW band of NewEngineBackend, or the Sakoe-Chiba window of
// NewWindowedBackend over series of one length.
type engineBackend struct {
	engine      *core.Engine
	bandCfg     band.Config
	fingerprint string
	// length is the one series length the backend admits, as windowed
	// search needs; 0 admits any.
	length int
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

// NewWindowedBackend builds the windowed exact-DTW backend for series of
// the given length: Keogh's exact-indexing pipeline (the paper's
// reference [7]), which is the engine's fixed band at a radius in
// samples, band.Window(radius), over an equal-length collection.
// radius < 0 (or >= length) selects unconstrained DTW, FullGrid, with
// full-width envelopes. The effective radius is returned alongside the
// backend.
func NewWindowedBackend(length, radius int) (Backend, int, error) {
	if length <= 0 {
		return nil, 0, fmt.Errorf("windowed backend needs a positive series length, got %d: %w", length, ErrEmptySeries)
	}
	cfg := band.Config{Strategy: band.FullGrid}
	if radius < 0 || radius >= length {
		radius = length // unconstrained
	} else {
		cfg = band.Window(radius)
	}
	return &engineBackend{
		engine:      core.NewEngine(core.Options{Band: cfg}),
		bandCfg:     cfg,
		fingerprint: fmt.Sprintf("windowed/v1|len=%d|radius=%d", length, radius),
		length:      length,
	}, radius, nil
}

func (b *engineBackend) Fingerprint() string { return b.fingerprint }

func (b *engineBackend) Admit(s series.Series) ([]sift.Feature, error) {
	if err := b.AdmitCold(s.ID, s.Len()); err != nil {
		return nil, err
	}
	if !b.bandCfg.Strategy.NeedsAlignment() {
		return nil, nil
	}
	return b.engine.Extract(s)
}

// AdmitCold is the length check for store-restored series: the metadata
// alone decides admissibility, so cold values stay on disk.
func (b *engineBackend) AdmitCold(id string, n int) error {
	if b.length > 0 && n != b.length {
		return fmt.Errorf("series %q has length %d, want %d (windowed search needs equal lengths): %w",
			id, n, b.length, ErrLengthMismatch)
	}
	return nil
}

func (b *engineBackend) Prepare(q series.Series) (Query, error) {
	if b.length > 0 && q.Len() != b.length {
		return Query{}, fmt.Errorf("query length %d != indexed length %d: %w", q.Len(), b.length, ErrLengthMismatch)
	}
	if !b.bandCfg.Strategy.NeedsAlignment() {
		return Query{Series: q}, nil
	}
	start := time.Now()
	f, err := b.engine.Extract(q)
	if err != nil {
		return Query{}, fmt.Errorf("core: extracting features of the query: %w", err)
	}
	return Query{Series: q, ExtractTime: time.Since(start), feats: f}, nil
}

func (b *engineBackend) EnvelopeRadius(m int) int { return band.EnvelopeRadius(b.bandCfg, m) }

func (b *engineBackend) Distance(ctx context.Context, q Query, c series.Series, cf []sift.Feature, budget float64) (Result, error) {
	res, err := b.engine.DistanceUnderFeatures(ctx, q.Series, q.feats, c, cf, budget)
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
