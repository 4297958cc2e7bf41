package sdtw

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"sdtw/internal/band"
	"sdtw/internal/retrieve"
)

// Index supports retrieval and k-nearest-neighbour classification over a
// mutable collection of series through one query surface, backed by one
// of two distance families of the same engine:
//
//   - NewIndex builds it over the sDTW engine (salient-feature banded
//     DTW, the paper's pipeline) under the band strategy of its Options;
//   - NewWindowedIndex builds it over exact, optionally
//     Sakoe-Chiba-windowed DTW (Keogh's exact-indexing pipeline, the
//     paper's reference [7]): the engine's fixed-core, fixed-width band
//     at a radius in samples, over series of one length.
//
// Both constructors pay the one-time indexing costs up front (salient
// feature extraction under an aligning band; LB_Keogh upper/lower
// envelopes and their PAA sketches for both) and both serve queries
// through the same shared cascade: candidates ordered by the stage-0
// LB_PAA sketch bound (those of the query's length) or the cheap LB_Kim
// bound are discarded against a best-so-far threshold — by those bounds,
// then by envelope LB_Keogh — before any DTW grid work, and the survivors
// fan out across a bounded worker pool running threshold-aware
// early-abandoning dynamic programs. The cascade is exact: Search returns precisely the neighbours
// a brute-force scan under the same distance would.
//
// An Index is safe for concurrent use. Searches run under a read lock;
// Add and Remove take the write lock only to change the collection (Add
// derives a series' one-time data before it), so a mutating index keeps
// serving queries between mutations.
type Index struct {
	core   *retrieve.Core
	family backendFamily

	// Store-backed state (stores is non-nil, holding one store, only for
	// indexes opened with OpenIndex / OpenWindowedIndex): mutations write
	// through to the segment store.
	storeSet
	seqs    map[string]uint64 // insertion sequence by series ID
	nextSeq uint64

	// segRecords is Options.StoreSegmentRecords, kept for SaveStore
	// (zero means the store default).
	segRecords int
}

// Neighbor is one retrieval result, and the one result type: it carries
// the matched series' Pos, ID, Label and Distance. ID and Label are copied
// inside the search, so they name the series whose distance is reported
// even when a concurrent Add or Remove renumbers positions afterwards. A
// ShardedIndex reports Pos -1: positions are per shard and mean nothing
// across them.
type Neighbor = retrieve.Neighbor

// SearchStats accounts for the work one search (or batch) did and, more
// importantly, avoided: per-stage prune counts, abandonment and grid-cell
// accounting, and per-stage timings. It is shared by both families.
type SearchStats = retrieve.Stats

// backendFamily is one of the two distance families an index is built
// over — the sDTW engine or windowed exact DTW, both one retrieve.Backend
// — reduced to what constructing or opening an index (flat or sharded)
// needs to know. The backend is built once, with the family: it holds no
// per-series state (each core keeps its series' features itself), so
// every core of an index, flat or sharded, computes through it.
type backendFamily struct {
	// kind is the family's name in a store manifest.
	kind string
	// backend is the index's one distance family; its Fingerprint is the
	// configuration a store must have been written under.
	backend *retrieve.Backend
	// engine is the public face of the backend's engine; nil for the
	// windowed family, whose band Options cannot express.
	engine *Engine
	// length and radius are the windowed geometry — the one series length
	// and the effective window; 0 and -1 for the engine family.
	length, radius int
	workers        int
}

// engineFamily is the sDTW engine family configured by opts. A Strategy
// outside the declared six fails with ErrConfigMismatch.
func engineFamily(opts Options) (backendFamily, error) {
	if opts.Strategy < FullGrid || opts.Strategy > AdaptiveCoreAdaptiveWidthAvg {
		return backendFamily{}, fmt.Errorf("sdtw: unknown band strategy %v: %w", opts.Strategy, ErrConfigMismatch)
	}
	engine := NewEngine(opts)
	return backendFamily{
		kind:    snapshotKindEngine,
		backend: retrieve.NewEngineBackend(engine.inner, engineFingerprint(opts), false),
		engine:  engine,
		radius:  -1,
		workers: resolveWorkers(opts.Workers),
	}, nil
}

// windowedFamily is the windowed exact-DTW family for series of the
// given length: the engine backend at a fixed band of radius samples.
// Its engine is not exposed, since Options cannot express that band.
func windowedFamily(length, radius int) (backendFamily, error) {
	backend, eff, err := retrieve.NewWindowedBackend(length, radius)
	if err != nil {
		return backendFamily{}, fmt.Errorf("sdtw: %w", err)
	}
	return backendFamily{
		kind:    snapshotKindWindowed,
		backend: backend,
		length:  length,
		radius:  eff,
		workers: resolveWorkers(0),
	}, nil
}

// windowedFamilyOver is the windowed family whose geometry data fixes: a
// windowed index, flat or sharded, takes its length from its first series
// and so cannot be built over none.
func windowedFamilyOver(data []Series, radius int) (backendFamily, error) {
	if len(data) == 0 {
		return backendFamily{}, fmt.Errorf("sdtw: a windowed index takes its length from its first series: %w", ErrEmptyCollection)
	}
	return windowedFamily(data[0].Len(), radius)
}

// newIndex builds the in-RAM index of a family over data, with the
// stage-0 sketch filter at DefaultSketchWidth. A flat index is never
// empty: the refusal is here, retrieve.Core itself holds any count.
func newIndex(f backendFamily, data []Series, segRecords int) (*Index, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("sdtw: cannot index: %w", ErrEmptyCollection)
	}
	core, err := retrieve.New(f.backend, data, f.workers, true)
	if err != nil {
		return nil, fmt.Errorf("sdtw: %w", err)
	}
	return &Index{core: core, family: f, segRecords: segRecords}, nil
}

// NewIndex builds an index over data using the sDTW engine configured by
// opts. Every series must be non-empty; series IDs must be unique when
// non-empty (they key Remove). Construction extracts the salient features
// of every series and keeps them in the index beside it — unless the
// band strategy reads none (FullGrid, FixedCoreFixedWidth) — and
// precomputes LB_Keogh envelopes at the radius admissible for the
// strategy. That per-series work runs on the index's worker pool
// (Options.Workers) and builds the index a sequential build would,
// reporting the lowest-positioned bad series. A Strategy outside the
// declared six fails with ErrConfigMismatch.
func NewIndex(data []Series, opts Options) (*Index, error) {
	f, err := engineFamily(opts)
	if err != nil {
		return nil, err
	}
	return newIndex(f, data, opts.StoreSegmentRecords)
}

// NewWindowedIndex builds an index answering exact top-k DTW queries over
// an equal-length collection. radius is the Sakoe-Chiba warping window in
// samples: both the DTW computation and the LB_Keogh envelopes use the
// same radius, keeping the cascade exact for the windowed distance.
// radius < 0 (or >= the series length) selects unconstrained DTW with
// full-width envelopes.
//
// Validation is shared with NewIndex — in particular non-empty series IDs
// must be unique (they key Remove).
func NewWindowedIndex(data []Series, radius int) (*Index, error) {
	f, err := windowedFamilyOver(data, radius)
	if err != nil {
		return nil, err
	}
	return newIndex(f, data, 0)
}

// resolveWorkers resolves a worker-pool width (an index's or a monitor's):
// <= 0 means GOMAXPROCS.
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// engineFingerprint deterministically encodes every engine option that
// affects distances or cascade geometry, so a segment store refuses to
// open under options that would change its answers.
func engineFingerprint(o Options) string {
	var b strings.Builder
	b.WriteString("sdtw/v1")
	f := func(k string, v any) { fmt.Fprintf(&b, "|%s=%v", k, v) }
	f("strategy", int(o.Strategy))
	f("w", strconv.FormatFloat(o.WidthFrac, 'g', -1, 64))
	// The adaptive-width bounds and the ac2 radius, removed from Options
	// with their knobs, and the slope bound of the removed Itakura
	// strategy: every store written without them holds these zeros.
	b.WriteString("|minw=0|maxw=0|nr=0|slope=0")
	f("sym", o.Symmetric)
	// The extraction and matching knobs, removed from Options (the
	// paper's settings are fixed), and the custom point cost, removed
	// with the option that set it: every store holds these literals.
	b.WriteString("|bins=0|eps=0|oct=0|lev=0|amp=0|scale=0|dom=0|pd=false")
	return b.String()
}

// canonicalFingerprint resolves the width of an engine fingerprint as
// the band builder resolves it (band.Config.ResolvedWidth), so two
// configurations that give the same distances compare equal: a width at
// or below 0 is 0.1, one above 1 is 1, and a strategy that reads no
// width drops it. A store keeps the fingerprint it was written under;
// only the comparison at open reads this form. Any other fingerprint — a
// windowed one, or one that does not parse — is returned as it is.
func canonicalFingerprint(fp string) string {
	fields := strings.Split(fp, "|")
	if len(fields) < 3 || fields[0] != "sdtw/v1" {
		return fp
	}
	sv, sok := strings.CutPrefix(fields[1], "strategy=")
	wv, wok := strings.CutPrefix(fields[2], "w=")
	strategy, serr := strconv.Atoi(sv)
	w, werr := strconv.ParseFloat(wv, 64)
	if !sok || !wok || serr != nil || werr != nil {
		return fp
	}
	fields[2] = "w="
	if w, ok := (band.Config{Strategy: Strategy(strategy), WidthFrac: w}).ResolvedWidth(); ok {
		fields[2] += strconv.FormatFloat(w, 'g', -1, 64)
	}
	return strings.Join(fields, "|")
}

// Len returns the number of indexed series.
func (ix *Index) Len() int { return ix.core.Len() }

// Series returns the indexed series at position i. Positions are
// renumbered by Add and Remove; a position is only meaningful against the
// collection state it was observed under.
func (ix *Index) Series(i int) Series { return ix.core.Series(i) }

// Engine exposes the index's engine for direct distance computations. It
// is nil for windowed indexes, whose band is sized in samples, which
// Options cannot express.
// The index keeps its series' features itself; a direct Engine call
// extracts both sides' features again.
func (ix *Index) Engine() *Engine { return ix.family.engine }

// Radius returns the effective Sakoe-Chiba warping window in samples for
// windowed indexes, and -1 for engine-backed indexes.
func (ix *Index) Radius() int { return ix.family.radius }

// Add appends a series to the collection, incrementally paying its
// one-time costs (feature extraction on the engine backend, LB_Keogh
// envelope on both) before it takes the index's write lock, so searches
// keep running meanwhile. The series must be non-empty, its non-empty ID
// unique, and — on windowed indexes — its length equal to the indexed
// length.
func (ix *Index) Add(s Series) error {
	if ix.stores != nil {
		return ix.addStore(s)
	}
	if err := ix.core.Add(s, nil); err != nil {
		return fmt.Errorf("sdtw: Add: %w", err)
	}
	return nil
}

// Remove deletes the series with the given non-empty ID, dropping its
// envelope and features. Later series shift down one position.
// Removing the last series fails: an index is never empty.
func (ix *Index) Remove(id string) error {
	if ix.stores != nil {
		return ix.removeStore(id)
	}
	if err := ix.core.Remove(id); err != nil {
		return fmt.Errorf("sdtw: Remove: %w", err)
	}
	return nil
}

// searchConfig is the resolved form of a SearchOption list.
type searchConfig struct {
	k            int
	kSet         bool
	workers      int
	exclude      int
	threshold    float64
	thresholdSet bool
}

// SearchOption configures one Search, SearchBatch, Labels or LabelsAll
// call.
type SearchOption func(*searchConfig)

// WithK requests the k nearest neighbours (k >= 1; Search reports ErrBadK
// otherwise). k larger than the candidate count is truncated. Without
// WithK a search returns the single nearest neighbour — unless
// WithThreshold is given, in which case it returns every neighbour within
// the threshold.
func WithK(k int) SearchOption {
	return func(c *searchConfig) { c.k, c.kSet = k, true }
}

// WithWorkers overrides the index's worker-pool width for this search.
// n <= 0 leaves the index default; 1 forces a sequential cascade.
func WithWorkers(n int) SearchOption {
	return func(c *searchConfig) { c.workers = n }
}

// WithExclude drops the candidate at the given collection position, for
// leave-one-out workloads whose series may lack IDs. (Candidates sharing
// the query's non-empty ID are always excluded.)
func WithExclude(pos int) SearchOption {
	return func(c *searchConfig) { c.exclude = pos }
}

// WithThreshold restricts results to neighbours at distance <= d and
// seeds the cascade's pruning threshold with it, so hopeless candidates
// are discarded even before the best-so-far heap fills. Combined with
// WithK it returns the k nearest within d; alone it returns every
// neighbour within d.
func WithThreshold(d float64) SearchOption {
	return func(c *searchConfig) { c.threshold, c.thresholdSet = d, true }
}

// resolve validates and lowers a SearchOption list onto retrieve.Params.
func resolveSearch(opts []SearchOption) (retrieve.Params, error) {
	cfg := searchConfig{exclude: -1, threshold: math.Inf(1)}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.kSet && cfg.k <= 0 {
		return retrieve.DefaultParams(), fmt.Errorf("sdtw: %w: got %d", ErrBadK, cfg.k)
	}
	if cfg.thresholdSet && math.IsNaN(cfg.threshold) {
		return retrieve.DefaultParams(), fmt.Errorf("sdtw: WithThreshold needs a number, got NaN")
	}
	k := cfg.k
	if !cfg.kSet {
		if cfg.thresholdSet {
			k = 0 // every neighbour within the threshold
		} else {
			k = 1
		}
	}
	// Start from DefaultParams so the zero-value traps (Exclude: 0,
	// Threshold: 0) cannot resurface if fields are added.
	p := retrieve.DefaultParams()
	p.K = k
	p.Workers = cfg.workers
	p.Exclude = cfg.exclude
	p.Threshold = cfg.threshold
	p.ThresholdSet = cfg.thresholdSet
	return p, nil
}

// Search returns the query's nearest indexed series under the index's
// distance, ascending (ties broken by position), through the exact
// lower-bound cascade. Options select the neighbour count (WithK), a
// distance cutoff (WithThreshold), leave-one-out exclusion (WithExclude)
// and the worker count (WithWorkers); every search runs every stage of
// the cascade, and the DP always abandons against the threshold.
//
// ctx cancellation stops the search promptly — the worker pool stops
// dispatching and the dynamic programs stop mid-band — and Search returns
// ctx.Err(), so errors.Is(err, context.Canceled) holds.
// Validation is uniform across backends: an empty query reports
// ErrEmptySeries, a bad k ErrBadK, and a wrong-length query on a windowed
// index ErrLengthMismatch.
func (ix *Index) Search(ctx context.Context, query Series, opts ...SearchOption) ([]Neighbor, SearchStats, error) {
	p, err := resolveSearch(opts)
	if err != nil {
		return nil, SearchStats{}, err
	}
	nbrs, stats, err := ix.core.Search(ctx, query, p)
	if err != nil {
		return nil, stats, fmt.Errorf("sdtw: %w", err)
	}
	return nbrs, stats, nil
}

// SearchBatch answers one search per entry of queries, parallelising
// across queries while keeping the total worker pool bounded. The
// returned stats aggregate every query; WallTime is the batch's elapsed
// time. The whole batch sees one consistent collection state.
func (ix *Index) SearchBatch(ctx context.Context, queries []Series, opts ...SearchOption) ([][]Neighbor, SearchStats, error) {
	p, err := resolveSearch(opts)
	if err != nil {
		return nil, SearchStats{}, err
	}
	out, stats, err := ix.core.SearchBatch(ctx, queries, p)
	if err != nil {
		return nil, stats, fmt.Errorf("sdtw: %w", err)
	}
	return out, stats, nil
}

// Labels attaches class labels to the query by k-nearest-neighbour
// majority vote over a Search with the same options. Every label
// achieving the maximum count among the neighbours is returned (ties can
// attach multiple labels, §4.2), sorted ascending.
func (ix *Index) Labels(ctx context.Context, query Series, opts ...SearchOption) ([]int, error) {
	nbrs, _, err := ix.Search(ctx, query, opts...)
	if err != nil {
		return nil, err
	}
	return vote(nbrs), nil
}

// LabelsAll classifies every indexed series against the rest of the
// collection — the paper's whole-dataset leave-one-out workload (§4.2).
// Each series is excluded from its own candidate set by position, so
// leave-one-out holds even for collections without series IDs. labels[i]
// is the label set attached to series i.
func (ix *Index) LabelsAll(ctx context.Context, opts ...SearchOption) ([][]int, SearchStats, error) {
	p, err := resolveSearch(opts)
	if err != nil {
		return nil, SearchStats{}, err
	}
	nbrs, stats, err := ix.core.SearchSelf(ctx, p)
	if err != nil {
		return nil, stats, fmt.Errorf("sdtw: %w", err)
	}
	labels := make([][]int, len(nbrs))
	for i, nb := range nbrs {
		labels[i] = vote(nb)
	}
	return labels, stats, nil
}

// vote derives the majority-vote label set from the neighbours' labels.
func vote(nbrs []Neighbor) []int {
	counts := make(map[int]int)
	maxCount := 0
	for _, nb := range nbrs {
		counts[nb.Label]++
		if counts[nb.Label] > maxCount {
			maxCount = counts[nb.Label]
		}
	}
	var labels []int
	for l, c := range counts {
		if c == maxCount {
			labels = append(labels, l)
		}
	}
	sort.Ints(labels)
	return labels
}
