package retrieve

import (
	"fmt"
	"time"

	"sdtw/internal/band"
	"sdtw/internal/core"
	"sdtw/internal/series"
	"sdtw/internal/sift"
)

// prepared is a search's query as a core prepared it: the series itself
// plus what the backend derives from a series (the sDTW engine's salient
// features), derived once for the whole search. A prepared query carries
// over between cores of one backend: a multi-part search prepares it on
// one part and searches every part with it.
type prepared struct {
	series.Series
	// ExtractTime is what the preparation cost beyond validation.
	ExtractTime time.Duration
	// feats is what admit derives from the query's values; nil under a
	// band that reads nothing but the raw values.
	feats []sift.Feature
}

// Backend is the distance family behind an index: banded DTW under the
// squared point cost, computed by one core.Engine under one band
// configuration. The paper's four constraint families are band
// strategies of that engine (NewEngineBackend), and so is Keogh's
// windowed exact DTW (NewWindowedBackend: the engine's fixed band at a
// radius in samples, over series of one length); a further constraint
// would be one more band strategy, not a second kind of backend.
//
// A Backend owns the constraint geometry while the cascade in Core owns
// the collection (with what admit derives from each series), candidate
// ordering, lower-bound pruning, the best-so-far threshold, and the
// worker pool. It holds no per-series state, so one serves any number
// of cores, concurrently. LB_Kim, LB_Keogh at EnvelopeRadius and the
// stage-0 LB_PAA sketch are admissible lower bounds of its distance,
// and its dynamic program abandons against the best-so-far threshold.
type Backend struct {
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
func NewEngineBackend(engine *core.Engine, fingerprint string, _ bool) *Backend {
	return &Backend{
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
func NewWindowedBackend(length, radius int) (*Backend, int, error) {
	if length <= 0 {
		return nil, 0, fmt.Errorf("windowed backend needs a positive series length, got %d: %w", length, ErrEmptySeries)
	}
	cfg := band.Config{Strategy: band.FullGrid}
	if radius < 0 || radius >= length {
		radius = length // unconstrained
	} else {
		cfg = band.Window(radius)
	}
	return &Backend{
		engine:      core.NewEngine(core.Options{Band: cfg}),
		bandCfg:     cfg,
		fingerprint: fmt.Sprintf("windowed/v1|len=%d|radius=%d", length, radius),
		length:      length,
	}, radius, nil
}

// Fingerprint identifies the backend configuration for persistence: two
// backends with equal fingerprints produce identical distances over
// identical data.
func (b *Backend) Fingerprint() string { return b.fingerprint }

// EnvelopeRadius returns the warping radius at which an LB_Keogh
// envelope over a series of length m lower-bounds the backend's
// distance.
func (b *Backend) EnvelopeRadius(m int) int { return band.EnvelopeRadius(b.bandCfg, m) }

// admit validates a series joining the collection and derives what the
// distance reads of it besides its values, the paper's one-time
// indexing cost (§3.4): its salient features under an aligning band,
// nil otherwise.
func (b *Backend) admit(s series.Series) ([]sift.Feature, error) {
	if err := b.admitCold(s.ID, s.Len()); err != nil {
		return nil, err
	}
	if !b.bandCfg.Strategy.NeedsAlignment() {
		return nil, nil
	}
	return b.engine.Extract(s)
}

// admitCold is the length check alone, which is all a store-restored
// series can be checked against before its values load: a store is
// input from outside the program.
func (b *Backend) admitCold(id string, n int) error {
	if b.length > 0 && n != b.length {
		return fmt.Errorf("series %q has length %d, want %d (windowed search needs equal lengths): %w",
			id, n, b.length, ErrLengthMismatch)
	}
	return nil
}

// prepare validates a query against the backend's constraints (a
// windowed backend requires the indexed length) and derives from it what
// admit derives from a series, once for every candidate's distance.
func (b *Backend) prepare(q series.Series) (prepared, error) {
	if b.length > 0 && q.Len() != b.length {
		return prepared{}, fmt.Errorf("query length %d != indexed length %d: %w", q.Len(), b.length, ErrLengthMismatch)
	}
	if !b.bandCfg.Strategy.NeedsAlignment() {
		return prepared{Series: q}, nil
	}
	start := time.Now()
	f, err := b.engine.Extract(q)
	if err != nil {
		return prepared{}, fmt.Errorf("core: extracting features of the query: %w", err)
	}
	return prepared{Series: q, ExtractTime: time.Since(start), feats: f}, nil
}
