// Package retrieve implements the shared lower-bound-cascaded k-NN
// retrieval core behind the public sdtw.Index: one cascade — candidates
// visited lazily in order of their stage-0 LB_PAA (or LB_Kim) bound,
// sketch, LB_Kim and LB_Keogh pruning against a shared best-so-far
// threshold, and threshold-aware early-abandoning DTW fanned out across
// a bounded worker pool — over one Backend: a core.Engine under one band
// configuration (an sDTW band strategy, or the Sakoe-Chiba window of
// windowed exact DTW).
//
// The cascade is exact: LB_Kim, the stage-0 LB_PAA sketch and LB_Keogh (at
// the backend's envelope radius) never exceed the backend distance, and an
// abandoned computation's partial cost is itself a lower bound above the
// threshold, so a search returns precisely the neighbours a brute-force
// scan would.
//
// A Core is safe for concurrent use; searches run under a read lock and
// the Add/Remove mutators take the write lock, so a mutating index keeps
// serving queries between mutations.
//
// A Core may hold zero series: New and RestoreCold accept an empty
// collection and CloneRemove may return one, so a drained shard is a Core
// like any other — it answers a search with no neighbours and fills again
// through CloneAdd. Only the in-place Remove refuses the last series: it
// is the flat index's mutator, and the flat index is never empty.
package retrieve

import (
	"cmp"
	"container/heap"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sdtw/internal/lower"
	"sdtw/internal/series"
	"sdtw/internal/sift"
	"sdtw/internal/sketch"
)

// Neighbor is one retrieval result — the one result type of every search
// surface, flat or sharded. ID and Label are copied from the matched
// series under the search's own view of the collection, so they belong to
// the series whose Distance is reported even if a concurrent Add/Remove
// renumbers positions before the caller looks.
type Neighbor struct {
	// Pos is the position of the neighbour in the indexed collection (as
	// of the search; Add/Remove renumber positions). A multi-part search
	// (SearchParts, a sharded index's) reports -1: positions are per part
	// and mean nothing across them.
	Pos int
	// ID is the matched series' ID (empty when it has none).
	ID string
	// Label is the matched series' class label.
	Label int
	// Distance is the backend distance to the query.
	Distance float64
}

// Params carries the resolved knobs of one search. The public layer
// translates its functional options into this struct; none of them
// turns a cascade stage off.
//
// The zero value is usable but two fields have surprising zeroes —
// Exclude: 0 names collection position 0, and Threshold: 0 is a real
// range limit only when ThresholdSet says so. Start from DefaultParams
// instead of a struct literal.
type Params struct {
	// K is the neighbour count; K <= 0 means every candidate (used by
	// threshold-only range searches). K larger than the candidate count
	// is truncated.
	K int
	// Workers overrides the core's worker-pool width when positive.
	Workers int
	// Exclude drops the candidate at that collection position (for
	// leave-one-out workloads whose series may lack IDs) — in a
	// multi-part search, at that rank; -1 excludes none. Candidates
	// sharing the query's non-empty ID are always excluded.
	Exclude int
	// Threshold, when finite, restricts results to neighbours at distance
	// <= Threshold and seeds the pruning threshold, so hopeless
	// candidates are discarded even before the k-heap fills.
	//
	// Threshold == 0 is honoured as a real limit only when ThresholdSet
	// is true; otherwise it means "no limit", so a zero-value Params does
	// not silently return empty results.
	Threshold float64
	// ThresholdSet marks Threshold as deliberately chosen, letting an
	// explicit 0 (exact-match range search) survive the zero-value guard.
	ThresholdSet bool
}

// DefaultParams returns the safe starting point for a Params value:
// single nearest neighbour, no positional exclusion (Exclude −1), no
// range limit (Threshold +Inf). The public option layer and the serving
// layer both start here, so the zero-value traps (Exclude: 0 excluding
// position 0, Threshold: 0 emptying results) cannot arise by omission.
func DefaultParams() Params {
	return Params{K: 1, Exclude: -1, Threshold: math.Inf(1)}
}

// EffectiveThreshold resolves the range limit a search runs under: the
// Threshold when deliberately set (ThresholdSet) or — for callers that
// predate ThresholdSet — any non-zero, non-NaN value; +Inf otherwise.
func (p Params) EffectiveThreshold() float64 {
	if p.ThresholdSet {
		if math.IsNaN(p.Threshold) {
			return math.Inf(1)
		}
		return p.Threshold
	}
	if p.Threshold != 0 && !math.IsNaN(p.Threshold) {
		return p.Threshold
	}
	return math.Inf(1)
}

// Core is the shared cascade over one collection and one backend.
type Core struct {
	backend *Backend
	workers int

	// sketchW is the stage-0 PAA sketch width, at least 1.
	sketchW int

	mu   sync.RWMutex
	data []series.Series
	// envelopes[i] is the LB_Keogh envelope of data[i] at the backend's
	// admissible radius.
	envelopes []lower.Envelope
	// sketches[i] is the width-sketchW stage-0 PAA sketch of
	// envelopes[i].
	sketches []sketch.Sketch
	// feats[i] is what the backend's admit derived from data[i] (its
	// salient features under the sDTW engine); nil when the backend
	// derives nothing, or while cold[i] holds it.
	feats [][]sift.Feature
	// meta[i] is the hot per-series metadata (length, raw endpoints) the
	// pre-DP stages read, so they never touch data[i].Values — which is
	// nil for store-backed collections until a candidate survives the
	// bounds.
	meta []seriesMeta
	// cold[i] materialises data[i]'s raw values on demand; nil (or a nil
	// slot) when the values are resident in data[i].Values.
	cold []*coldSlot
	// ids maps non-empty series IDs to their position, for duplicate
	// detection and Remove.
	ids map[string]int
}

// seriesMeta is the always-hot summary of one indexed series: what
// LB_Kim and the grid accounting need without loading raw values.
type seriesMeta struct {
	n           int
	first, last float64
}

// coldSlot materialises one cold series' raw values, and what the
// backend's admit derives from them, at most once — no matter how many
// concurrent searches, on however many copy-on-write copies of the core,
// reach its DP stage.
type coldSlot struct {
	once  sync.Once
	load  func() ([]float64, []sift.Feature, error)
	vals  []float64
	feats []sift.Feature
	err   error
}

func (cs *coldSlot) get() ([]float64, []sift.Feature, error) {
	cs.once.Do(func() {
		cs.vals, cs.feats, cs.err = cs.load()
		cs.load = nil
	})
	return cs.vals, cs.feats, cs.err
}

// ColdSeries is one series restored from a segment store: everything the
// pre-DP cascade stages need is resident (length, endpoints, envelope,
// sketch), while the raw values stay on disk behind Load until a
// candidate survives the bounds.
type ColdSeries struct {
	ID          string
	Label       int
	N           int
	First, Last float64
	Envelope    lower.Envelope
	Sketch      sketch.Sketch
	// Load reads the raw values (called at most once per series, by the
	// core or any copy of it; the core keeps the result).
	Load func() ([]float64, error)
}

// RestoreCold builds a core over store-backed series (possibly none):
// envelopes and sketches are trusted from the store, raw values load
// lazily. sketchW is the width every stored sketch has, at least 1. A
// store holds no features: the first touch of a series loads its values
// and derives from them, once, in the series' cold slot — refusing
// values that are not finite, as admission does.
//
// The bool parameter is ignored (the DP always early-abandons); it goes
// with the benchmark edit of ROADMAP item 2c: the nested benchmark
// module passes true.
func RestoreCold(backend *Backend, cold []ColdSeries, sketchW, workers int, _ bool) (*Core, error) {
	if sketchW < 1 {
		return nil, fmt.Errorf("sketch width must be >= 1, got %d", sketchW)
	}
	if workers <= 0 {
		workers = 1
	}
	c := &Core{
		backend:   backend,
		workers:   workers,
		sketchW:   sketchW,
		data:      make([]series.Series, 0, len(cold)),
		meta:      make([]seriesMeta, 0, len(cold)),
		cold:      make([]*coldSlot, 0, len(cold)),
		ids:       make(map[string]int, len(cold)),
		envelopes: make([]lower.Envelope, 0, len(cold)),
		sketches:  make([]sketch.Sketch, 0, len(cold)),
		feats:     make([][]sift.Feature, len(cold)),
	}
	for i, cs := range cold {
		if cs.N <= 0 {
			return nil, fmt.Errorf("series %d (%q): %w", i, cs.ID, ErrEmptySeries)
		}
		if cs.Load == nil {
			return nil, fmt.Errorf("series %d (%q) has no value loader", i, cs.ID)
		}
		if cs.ID != "" {
			if _, dup := c.ids[cs.ID]; dup {
				return nil, fmt.Errorf("%w: %q", ErrDuplicateID, cs.ID)
			}
			c.ids[cs.ID] = i
		}
		if err := backend.admitCold(cs.ID, cs.N); err != nil {
			return nil, fmt.Errorf("series %d: %w", i, err)
		}
		c.data = append(c.data, series.Series{ID: cs.ID, Label: cs.Label})
		c.meta = append(c.meta, seriesMeta{n: cs.N, first: cs.First, last: cs.Last})
		c.cold = append(c.cold, &coldSlot{load: func() ([]float64, []sift.Feature, error) {
			vals, err := cs.Load()
			if err != nil {
				return nil, nil, err
			}
			// The store holds the series' bounds; its values are checked and
			// admitted here, as an in-RAM series' are when it joins a core.
			feats, err := admitValues(backend, series.Series{ID: cs.ID, Label: cs.Label, Values: vals})
			return vals, feats, err
		}})
		if len(cs.Envelope.Upper) != cs.N {
			return nil, fmt.Errorf("series %d (%q) has envelope length %d for %d values: %w",
				i, cs.ID, len(cs.Envelope.Upper), cs.N, ErrConfigMismatch)
		}
		if cs.Sketch.Width() != sketchW {
			return nil, fmt.Errorf("series %d (%q) has sketch width %d, want %d: %w",
				i, cs.ID, cs.Sketch.Width(), sketchW, ErrConfigMismatch)
		}
		c.envelopes = append(c.envelopes, cs.Envelope)
		c.sketches = append(c.sketches, cs.Sketch)
	}
	return c, nil
}

// New builds a core over data (possibly none), validating every series
// and keeping what the backend's admit derives from it, its envelope and
// its sketch at sketch.DefaultWidth. workers bounds the worker pool (<= 0
// means the caller should have defaulted it; it is clamped to 1).
// Construction runs on that pool too: every series' one-time data is
// derived across it, and the core is the one a serial build makes, down
// to which bad series an error names — the lowest position. The bool
// parameter is ignored, as in RestoreCold.
func New(backend *Backend, data []series.Series, workers int, _ bool) (*Core, error) {
	// Validate the whole collection before paying any one-time costs, so
	// structural errors (empty series, duplicate IDs) surface first.
	seen := make(map[string]bool, len(data))
	for i, s := range data {
		if len(s.Values) == 0 {
			return nil, fmt.Errorf("series %d (%q): %w", i, s.ID, ErrEmptySeries)
		}
		if s.ID != "" {
			if seen[s.ID] {
				return nil, fmt.Errorf("%w: %q", ErrDuplicateID, s.ID)
			}
			seen[s.ID] = true
		}
	}
	if workers <= 0 {
		workers = 1
	}
	derived := make([]derivation, len(data))
	if i, err := lowestFailure(workers, len(data), func(i int) (err error) {
		derived[i], err = derive(backend, data[i], sketch.DefaultWidth)
		return err
	}); err != nil {
		return nil, fmt.Errorf("series %d: %w", i, err)
	}
	c := &Core{
		backend:   backend,
		workers:   workers,
		sketchW:   sketch.DefaultWidth,
		data:      make([]series.Series, 0, len(data)),
		ids:       make(map[string]int, len(data)),
		envelopes: make([]lower.Envelope, 0, len(data)),
		sketches:  make([]sketch.Sketch, 0, len(data)),
		feats:     make([][]sift.Feature, 0, len(data)),
	}
	for i, s := range data {
		c.appendLocked(s, derived[i])
	}
	return c, nil
}

// derivation is one series' one-time data: what the backend's admit
// derived from it, its LB_Keogh envelope, and its stage-0 sketch.
type derivation struct {
	feats  []sift.Feature
	env    lower.Envelope
	sketch sketch.Sketch
}

// derive is the one-time work of a series joining a core — the paper's
// indexing cost (§3.4): admitValues, then the LB_Keogh envelope at the
// backend's radius and the width-sketchW sketch of it. derive reads no
// core state, so New runs it on many series at once.
func derive(b *Backend, s series.Series, sketchW int) (derivation, error) {
	var d derivation
	var err error
	if d.feats, err = admitValues(b, s); err != nil {
		return d, err
	}
	d.env = lower.NewEnvelope(s.Values, b.EnvelopeRadius(len(s.Values)))
	if d.sketch, err = sketch.FromEnvelope(d.env, sketchW); err != nil {
		return d, fmt.Errorf("series %q: %w", s.ID, err)
	}
	return d, nil
}

// admitValues checks every value of s is finite and has the backend admit
// it, returning what the admit derived. A cold series stops here: its
// store holds its bounds.
func admitValues(b *Backend, s series.Series) ([]sift.Feature, error) {
	if err := series.Finite(s.Values); err != nil {
		return nil, fmt.Errorf("series %q: %w", s.ID, err)
	}
	return b.admit(s)
}

// lowestFailure runs fn over [0, n) across at most workers goroutines and
// returns the lowest index whose fn failed, with its error — what a
// serial loop stopping at the first failure reports, whatever the
// schedule. Indices above a known failure are skipped; none below it is
// (parallelFor's stop flag could skip one already claimed, so it is never
// set). It returns (n, nil) when every call succeeds.
func lowestFailure(workers, n int, fn func(i int) error) (int, error) {
	var (
		mu      sync.Mutex
		lowest  atomic.Int64
		failErr error
	)
	lowest.Store(int64(n))
	parallelFor(nil, workers, n, new(atomic.Bool), func(i int) {
		if int64(i) > lowest.Load() {
			return
		}
		if err := fn(i); err != nil {
			mu.Lock()
			if int64(i) < lowest.Load() {
				lowest.Store(int64(i))
				failErr = err
			}
			mu.Unlock()
		}
	})
	return int(lowest.Load()), failErr
}

// checkNewLocked refuses an empty series and one whose non-empty ID the
// collection already holds. Callers hold (at least) the read lock.
func (c *Core) checkNewLocked(s series.Series) error {
	if len(s.Values) == 0 {
		return fmt.Errorf("series %q: %w", s.ID, ErrEmptySeries)
	}
	if s.ID != "" {
		if _, dup := c.ids[s.ID]; dup {
			return fmt.Errorf("%w: %q", ErrDuplicateID, s.ID)
		}
	}
	return nil
}

// appendLocked appends a resident series and its derivation to every
// position-parallel slice. Callers hold the write lock (or own an
// unpublished core).
func (c *Core) appendLocked(s series.Series, d derivation) {
	if s.ID != "" {
		c.ids[s.ID] = len(c.data)
	}
	c.data = append(c.data, s)
	c.feats = append(c.feats, d.feats)
	n := len(s.Values)
	c.meta = append(c.meta, seriesMeta{n: n, first: s.Values[0], last: s.Values[n-1]})
	if c.cold != nil {
		c.cold = append(c.cold, nil) // values are resident
	}
	c.envelopes = append(c.envelopes, d.env)
	c.sketches = append(c.sketches, d.sketch)
}

// EnableSketches changes the stage-0 sketch width to w, computing a
// width-w sketch for every indexed series from its existing envelope, on
// the core's worker pool. Every core already has sketches (New builds
// them at sketch.DefaultWidth), so this only changes their width, and it
// is a no-op at the current one. Callers use it right after
// construction; it takes the write lock, so it is safe (if wasteful)
// later too.
func (c *Core) EnableSketches(w int) error {
	if w <= 0 {
		return fmt.Errorf("sketch width must be >= 1, got %d", w)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sketchW == w {
		return nil
	}
	sketches := make([]sketch.Sketch, len(c.envelopes))
	if i, err := lowestFailure(c.workers, len(sketches), func(i int) (err error) {
		sketches[i], err = sketch.FromEnvelope(c.envelopes[i], w)
		return err
	}); err != nil {
		return fmt.Errorf("series %q: %w", c.data[i].ID, err)
	}
	c.sketchW = w
	c.sketches = sketches
	return nil
}

// SketchWidth returns the stage-0 sketch width.
func (c *Core) SketchWidth() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.sketchW
}

// Sketch returns the stage-0 sketch of the series at position i.
func (c *Core) Sketch(i int) sketch.Sketch {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.sketches[i]
}

// Envelope returns the LB_Keogh envelope of the series at position i.
func (c *Core) Envelope(i int) lower.Envelope {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.envelopes[i]
}

// entry returns the raw values of the series at position pos and what the
// backend derived from them, materialising both if the series is cold.
// Callers hold (at least) the read lock.
func (c *Core) entry(pos int) ([]float64, []sift.Feature, error) {
	if c.cold != nil {
		if slot := c.cold[pos]; slot != nil {
			return slot.get()
		}
	}
	return c.data[pos].Values, c.feats[pos], nil
}

// Add appends a series to the collection: stage, persist, publish. It
// derives the series' one-time data (features, LB_Keogh envelope,
// sketch) outside the write lock, hands the envelope to persist (nil
// for a collection that lives in RAM only), and only once persist
// succeeds takes the write lock to append. So no search sees a series
// whose persist failed, and extraction never holds the write lock
// against searches. The ID and the sketch width are checked again
// under the lock; a caller that persists serialises its Adds, so the
// ID re-check never refuses a series persist already wrote.
func (c *Core) Add(s series.Series, persist func(env lower.Envelope) error) error {
	c.mu.RLock()
	err := c.checkNewLocked(s)
	w := c.sketchW
	c.mu.RUnlock()
	if err != nil {
		return err
	}
	d, err := derive(c.backend, s, w)
	if err != nil {
		return err
	}
	if persist != nil {
		if err := persist(d.env); err != nil {
			return err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkNewLocked(s); err != nil {
		return err
	}
	if c.sketchW != w {
		// EnableSketches changed the width meanwhile.
		if d.sketch, err = sketch.FromEnvelope(d.env, c.sketchW); err != nil {
			return fmt.Errorf("series %q: %w", s.ID, err)
		}
	}
	c.appendLocked(s, d)
	return nil
}

// Remove deletes the series with the given non-empty ID, dropping its
// envelope and features. Later series shift down one position. Removing
// the last series fails: Remove is the flat index's mutator, and a flat
// index is never empty (check and removal are atomic under the write
// lock).
func (c *Core) Remove(id string) error {
	if id == "" {
		return fmt.Errorf("Remove needs a non-empty ID")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	pos, ok := c.ids[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownID, id)
	}
	if len(c.data) == 1 {
		return fmt.Errorf("cannot remove the last series %q: %w", id, ErrEmptyCollection)
	}
	c.dropLocked(pos)
	return nil
}

// dropLocked drops the series at position pos from every
// position-parallel slice and renumbers the IDs behind it. Callers hold
// the write lock (or own an unpublished copy).
func (c *Core) dropLocked(pos int) {
	delete(c.ids, c.data[pos].ID)
	c.data = append(c.data[:pos], c.data[pos+1:]...)
	c.feats = append(c.feats[:pos], c.feats[pos+1:]...)
	c.meta = append(c.meta[:pos], c.meta[pos+1:]...)
	if c.cold != nil {
		c.cold = append(c.cold[:pos], c.cold[pos+1:]...)
	}
	c.envelopes = append(c.envelopes[:pos], c.envelopes[pos+1:]...)
	c.sketches = append(c.sketches[:pos], c.sketches[pos+1:]...)
	for sid, p := range c.ids {
		if p > pos {
			c.ids[sid] = p - 1
		}
	}
}

// copyLocked returns a new Core over the same backend with the
// collection state duplicated. Slices are copied at exact length so a
// subsequent append reallocates instead of scribbling on the receiver's
// backing arrays. Callers hold (at least) the read lock.
func (c *Core) copyLocked() *Core {
	nc := &Core{
		backend:   c.backend,
		workers:   c.workers,
		sketchW:   c.sketchW,
		data:      make([]series.Series, len(c.data)),
		meta:      make([]seriesMeta, len(c.meta)),
		ids:       make(map[string]int, len(c.ids)+1),
		envelopes: make([]lower.Envelope, len(c.envelopes)),
		sketches:  make([]sketch.Sketch, len(c.sketches)),
		feats:     make([][]sift.Feature, len(c.feats)),
	}
	copy(nc.data, c.data)
	copy(nc.feats, c.feats)
	copy(nc.meta, c.meta)
	copy(nc.envelopes, c.envelopes)
	copy(nc.sketches, c.sketches)
	if c.cold != nil {
		// Slots are shared, not copied: a materialisation on either core
		// serves both (values and features are immutable).
		nc.cold = make([]*coldSlot, len(c.cold))
		copy(nc.cold, c.cold)
	}
	for id, pos := range c.ids {
		nc.ids[id] = pos
	}
	return nc
}

// CloneAdd returns a copy of the core with s admitted; the receiver is
// unchanged and keeps serving. This is the copy-on-write seam the
// sharded serving layer builds its snapshots from: readers holding the
// old core never contend with the write, they simply keep seeing the old
// collection. The copy shares every other series' features, envelope and
// cold slot; the new series' one-time costs (feature extraction,
// envelope) are paid here.
func (c *Core) CloneAdd(s series.Series) (*Core, error) {
	c.mu.RLock()
	nc := c.copyLocked()
	c.mu.RUnlock()
	// nc is unpublished, so its locks are uncontended.
	if err := nc.Add(s, nil); err != nil {
		return nil, err
	}
	return nc, nil
}

// CloneRemove returns a copy of the core with the series of the given
// non-empty ID removed, along with the position it occupied (so callers
// maintaining position-parallel state can renumber the same way). The
// receiver is unchanged, and in-flight searches on it keep reading the
// series and its features. Unlike Remove it may take the last series:
// the copy is then an empty core, which is what a drained shard holds.
func (c *Core) CloneRemove(id string) (*Core, int, error) {
	if id == "" {
		return nil, -1, fmt.Errorf("Remove needs a non-empty ID")
	}
	c.mu.RLock()
	pos, ok := c.ids[id]
	if !ok {
		c.mu.RUnlock()
		return nil, -1, fmt.Errorf("%w: %q", ErrUnknownID, id)
	}
	nc := c.copyLocked()
	c.mu.RUnlock()
	nc.dropLocked(pos)
	return nc, pos, nil
}

// Len returns the number of indexed series.
func (c *Core) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.data)
}

// Series returns the indexed series at position i.
func (c *Core) Series(i int) series.Series {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.data[i]
}

// Pos returns the position of the series with the given non-empty ID.
func (c *Core) Pos(id string) (int, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	pos, ok := c.ids[id]
	return pos, ok
}

// Snapshot returns copies of the collection and envelope slices for
// persistence. The Series values and envelope arrays are shared (they are
// immutable once indexed).
func (c *Core) Snapshot() ([]series.Series, []lower.Envelope) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	data := make([]series.Series, len(c.data))
	copy(data, c.data)
	envs := make([]lower.Envelope, len(c.envelopes))
	copy(envs, c.envelopes)
	return data, envs
}

// candidate is one cascade work item: the candidate's rank in insertion
// order (its position, in a one-part search) and the visit key of its
// ordering bound. The bound is the stage-0 LB_PAA sketch bound of a
// candidate of the query's length and the LB_Kim bound of any other;
// which one is read off the candidate's length, and the Kim bound of a
// sketch-ordered candidate is derived again from its hot metadata at the
// visit. That keeps the record at two words — the ordering pass writes
// one per candidate. A search visits its candidates in ascending (key,
// rank) order, which is ascending (bound, sequence) with a NaN bound
// after every number, by popping them off a candQueue.
type candidate struct {
	key  uint64
	rank int
}

// nanKey is the visit key of a NaN bound: after every number's.
const nanKey = math.MaxUint64

// visitKey maps a bound to an integer that orders as the bound does, with
// a NaN after every number and −0 equal to +0. The bounds are sums of
// rounded squares starting at +0, so neither −0 nor a negative bound
// arises; the key orders them as the float comparison does all the same.
func visitKey(bound float64) uint64 {
	if bound != bound {
		return nanKey
	}
	bits := math.Float64bits(bound + 0) // −0 + 0 is +0
	if bits>>63 != 0 {
		return ^bits // negative: the larger magnitude first
	}
	return bits | 1<<63
}

// exceeds reports whether the bound keyed key is greater than t, as the
// float comparison bound > t would: never for a NaN bound or a NaN t.
func exceeds(key uint64, t float64) bool {
	return key != nanKey && key > visitKey(t)
}

// before reports whether a is visited before b: the smaller key first,
// equal keys by rank. Ranks are distinct, so this is a strict total
// order and the visit order is fully determined.
func (a *candidate) before(b *candidate) bool {
	return a.key < b.key || (a.key == b.key && a.rank < b.rank)
}

// candQueue is a binary min-heap of candidates under before, built in
// place over the search's candidate slice: heapifying is O(n) and each
// pop O(log n), so a search pays only for the candidates it visits
// instead of sorting all of them up front.
type candQueue []candidate

// init establishes the heap order.
//
//sdtw:hotpath
func (h candQueue) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down sifts h[i] towards the leaves until neither child comes before it.
//
//sdtw:hotpath
func (h candQueue) down(i int) {
	n := len(h)
	x := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// pop removes and returns the first candidate in visit order; h must be
// non-empty.
//
//sdtw:hotpath
func (h *candQueue) pop() candidate {
	q := *h
	top, last := q[0], len(q)-1
	q[0] = q[last]
	*h = q[:last]
	if last > 0 {
		(*h).down(0)
	}
	return top
}

// searchScratch is the working set of one search that grows with the
// collection: the candidate heap's buffer, a multi-part search's rank
// table and merge, and what the ordering pass keeps per query — the
// sketch means and segment weights, and the block of sketch-ordered
// candidates whose LB_PAA bounds it computes together.
type searchScratch struct {
	cands          []candidate
	locs           []loc
	heads          candQueue
	next           []int
	means, weights []float64
	block          [4]sketch.Sketch
	at             [4]int // where in cands block[j]'s candidate sits
	bounds         [4]float64
	visit          visitState
	// step is visit.step, bound once per scratch rather than per search.
	step func(int)
}

// scratchPool recycles searchScratch across every search of every core.
// It is package-level, not per core: a copy-on-write clone (every
// sharded write makes one) would start with an empty pool of its own. A
// search takes one for its whole run and puts it back on return, after
// its workers are done; a buffer too small for the collection is
// replaced by one of the collection's size.
var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// release returns sc to the pool, holding no core — neither sketches nor
// rank-table entries — and nothing of the search's visit.
func (sc *searchScratch) release() {
	sc.block = [4]sketch.Sketch{}
	clear(sc.locs)
	sc.locs = sc.locs[:0]
	sc.visit = visitState{}
	scratchPool.Put(sc)
}

// loc is where the candidate of one rank of a multi-part search lives.
type loc struct {
	c   *Core
	pos int
}

// rank fills sc.locs, a multi-part search's rank table, with every
// series of parts in ascending sequence: a k-way merge on a candidate
// queue keyed by each part's next sequence, ranked by the part's index.
// It returns the table's length and the rank of the series whose
// non-empty ID is id (-1 when no part holds one).
func (sc *searchScratch) rank(parts []Part, id string) (total, self int) {
	heads, next, locs := sc.heads[:0], sc.next[:0], sc.locs[:0]
	self = -1
	var selfSeq uint64
	hasSelf := false
	for i, pt := range parts {
		next = append(next, 0)
		if len(pt.Seqs) > 0 {
			heads = append(heads, candidate{key: pt.Seqs[0], rank: i})
		}
		if pos, ok := pt.Core.ids[id]; ok {
			selfSeq, hasSelf = pt.Seqs[pos], true
		}
	}
	heads.init()
	for len(heads) > 0 {
		i := heads[0].rank
		pt := parts[i]
		if hasSelf && heads[0].key == selfSeq {
			self = len(locs)
		}
		locs = append(locs, loc{c: pt.Core, pos: next[i]})
		if next[i]++; next[i] < len(pt.Seqs) {
			heads[0].key = pt.Seqs[next[i]]
			heads.down(0)
		} else {
			heads.pop()
		}
	}
	sc.heads, sc.next, sc.locs = heads, next, locs
	return len(locs), self
}

// flush sets the keys of the first size candidates of sc's block — the
// entries of cands that sc.at names — from their LB_PAA bounds, and
// returns how many of those bounds are NaN.
//
//sdtw:hotpath
func (sc *searchScratch) flush(cands []candidate, size int) (nans int) {
	sketch.LBPAABlock(sc.means, sc.weights, sc.block[:size], sc.bounds[:size])
	for j, b := range sc.bounds[:size] {
		cands[sc.at[j]].key = visitKey(b)
		if b != b {
			nans++
		}
	}
	return nans
}

// kimBound is LB_Kim between q and a series known by its hot metadata:
// LB_Kim sees only the first and last points, so the two-point stand-in
// (one point when the series has one) reproduces lower.Kim over the full
// values bit for bit, without reading them.
func kimBound(q []float64, m seriesMeta) (float64, error) {
	ends := [2]float64{m.first, m.last}
	return lower.Kim(q, ends[:min(m.n, 2)], nil)
}

// epoch anchors monotonic.
var epoch = time.Now()

// monotonic reads the monotonic clock as the time since a package-level
// epoch. The difference of two readings is an elapsed time, as with
// time.Since, but each reading is one clock read where time.Now reads
// the wall clock too — the cascade takes two per candidate that reaches
// LB_Keogh.
func monotonic() time.Duration { return time.Since(epoch) }

// bestK is the best-so-far heap: a max-heap on (distance, rank), the
// rank in Pos, holding at most k neighbours, so the root is the current
// k-th best and the pruning threshold.
type bestK []Neighbor

func (h bestK) Len() int { return len(h) }
func (h bestK) Less(a, b int) bool {
	if h[a].Distance != h[b].Distance {
		return h[a].Distance > h[b].Distance
	}
	return h[a].Pos > h[b].Pos
}
func (h bestK) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *bestK) Push(x any)   { *h = append(*h, x.(Neighbor)) }
func (h *bestK) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

func (h bestK) worseThan(nb Neighbor) bool {
	w := h[0]
	return nb.Distance < w.Distance || (nb.Distance == w.Distance && nb.Pos < w.Pos)
}

// parallelFor fans fn out over [0, n) across at most workers goroutines,
// stopping early (best effort) once stop is set or ctx is cancelled. fn
// must be safe for concurrent calls on distinct indices. It always waits
// for in-flight calls before returning, so no goroutines outlive it.
func parallelFor(ctx context.Context, workers, n int, stop *atomic.Bool, fn func(i int)) {
	cancelled := func() bool {
		return stop.Load() || (ctx != nil && ctx.Err() != nil)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n && !cancelled(); i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || cancelled() {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// sharedThreshold shares a search's best-so-far pruning threshold across
// its workers. It is monotone: Tighten only ever lowers it, so a stale
// read yields a looser threshold, which costs a bound evaluation but
// never correctness.
type sharedThreshold struct{ bits atomic.Uint64 }

// seed sets the threshold to limit (+Inf for an unbounded top-k) before
// the search's workers start.
func (t *sharedThreshold) seed(limit float64) { t.bits.Store(math.Float64bits(limit)) }

// Load returns the current threshold.
func (t *sharedThreshold) Load() float64 { return math.Float64frombits(t.bits.Load()) }

// Tighten lowers the threshold to v if v is smaller; larger values are
// ignored, keeping the threshold monotone under concurrent updates.
func (t *sharedThreshold) Tighten(v float64) {
	nb := math.Float64bits(v)
	for {
		ob := t.bits.Load()
		// Positive float64s order like their bit patterns; both v and the
		// stored value are non-negative distances (or +Inf).
		if math.Float64frombits(ob) <= v {
			return
		}
		if t.bits.CompareAndSwap(ob, nb) {
			return
		}
	}
}

// kimCheckEvery is how often the sequential LB_Kim stage polls the
// context on very large collections.
const kimCheckEvery = 1024

// Search runs the cascaded top-k search. Query validation (emptiness,
// the windowed length constraint) happens here, uniformly for every
// band; K is validated by the public layer, which owns the option surface.
func (c *Core) Search(ctx context.Context, query series.Series, p Params) ([]Neighbor, Stats, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return searchLocked(ctx, query, []Part{{Core: c}}, 0, p)
}

// prepareLocked validates query — non-empty, every value finite — and
// prepares it for a search over cores of c's backend. Callers hold (at
// least) the read lock. A query carrying a member's ID and that member's
// values, bit for bit, takes the member's features instead of extracting
// them again; a query that only shares a member's ID extracts its own.
func (c *Core) prepareLocked(query series.Series) (prepared, error) {
	if len(query.Values) == 0 {
		return prepared{}, fmt.Errorf("query: %w", ErrEmptySeries)
	}
	if err := series.Finite(query.Values); err != nil {
		return prepared{}, fmt.Errorf("query: %w", err)
	}
	if pos, ok := c.ids[query.ID]; ok {
		// A member whose values fail to load is no shortcut: the query
		// extracts its own features, and the member — excluded from this
		// search — reports the load error when a search evaluates it.
		if vals, f, err := c.entry(pos); err == nil && sameBits(vals, query.Values) {
			return prepared{Series: query, feats: f}, nil
		}
	}
	q, err := c.backend.prepare(query)
	if err != nil {
		return prepared{}, fmt.Errorf("query: %w", err)
	}
	return q, nil
}

// sameBits reports whether a and b hold the same float64s, bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Part is one collection of a multi-part search: a core, and the
// insertion sequence of each of its positions. Seqs ascend with position,
// and no sequence repeats across the parts of one search. A sharded index
// keeps one Part per shard.
type Part struct {
	Core *Core
	Seqs []uint64
}

// SearchParts is Search over the union of parts — one ordering pass,
// candidate queue, k-heap, threshold and worker pool (p.Workers, or the
// first core's) — with candidates ranked by sequence where Search ranks
// them by position; p.Exclude names a rank. The query is prepared on
// parts[home]'s core, where a member query finds its features.
// Neighbours report Pos -1. The cores, distinct and of one backend and
// sketch width, are read-locked in order for the whole search; non-empty
// IDs must be unique across them.
func SearchParts(ctx context.Context, query series.Series, parts []Part, home int, p Params) ([]Neighbor, Stats, error) {
	for _, pt := range parts {
		pt.Core.mu.RLock()
		defer pt.Core.mu.RUnlock()
	}
	first := parts[0].Core
	for i, pt := range parts {
		if c := pt.Core; c.backend != first.backend || c.sketchW != first.sketchW || len(pt.Seqs) != len(c.data) {
			return nil, Stats{}, fmt.Errorf("part %d of %d: %w", i, len(parts), ErrConfigMismatch)
		}
	}
	nbrs, stats, err := searchLocked(ctx, query, parts, home, p)
	for i := range nbrs {
		nbrs[i].Pos = -1
	}
	return nbrs, stats, err
}

// searchLocked prepares query on parts[home]'s core, then runs the
// cascade over parts, whose read locks the caller holds (batch holds one
// across a whole batch, so it sees one consistent collection).
func searchLocked(ctx context.Context, query series.Series, parts []Part, home int, p Params) ([]Neighbor, Stats, error) {
	start := time.Now()
	q, err := parts[home].Core.prepareLocked(query)
	if err != nil {
		return nil, Stats{}, err
	}
	nbrs, stats, err := cascade(ctx, q, parts, p)
	stats.ExtractTime = q.ExtractTime
	stats.WallTime = time.Since(start)
	return nbrs, stats, err
}

// cascade is the search itself, over parts whose read locks are held.
// One part's candidates rank by position (its Seqs are not read);
// several parts' by the rank table searchScratch.rank builds.
//
// Candidates are visited in ascending (bound, rank) order, popped one at
// a time off a heap under the search's mutex — the same path for one
// worker or many. Once the least bound left exceeds the pruning
// threshold, the visit stops: every bound still queued is at least that
// large and the threshold only tightens, so each of those candidates
// would be pruned by its ordering bound (stage 0 for a sketch bound,
// LB_Kim otherwise). They are counted into PrunedSketch and PrunedKim in
// bulk instead of being visited, which leaves every Stats count what a
// visit of each would have made it. A NaN bound is never below a
// threshold and is ordered last, so a search holding one visits
// everything.
//
// The heap holds one two-word candidate per collection series, keyed by
// an integer that orders as the bound (visitKey). Its buffer, the rank
// table, the query's sketch means and segment weights, and the visit's
// shared state come from a package-level pool and go back when the
// search returns, so a search allocates the same few bytes whatever the
// collection's size; concurrent searches (a batch, several callers) each
// take their own.
func cascade(ctx context.Context, query prepared, parts []Part, p Params) ([]Neighbor, Stats, error) {
	var stats Stats
	start := time.Now()
	if err := ctxErr(ctx); err != nil {
		return nil, stats, err
	}
	limit := p.EffectiveThreshold()
	qn := len(query.Values)
	first := parts[0].Core

	// Ordering pass: a cheap bound for every candidate — the stage-0
	// sketch bound where it applies, four candidates at a time, and LB_Kim
	// for the rest. Both read only hot metadata (endpoints, sketches),
	// never the possibly-cold raw values, so this stays sequential; the
	// bounds fix the visit order that lets the k-heap threshold tighten
	// fast.
	boundStart := monotonic()
	sc := scratchPool.Get().(*searchScratch)
	defer sc.release()
	v := &sc.visit
	v.one = first
	// The query's own entry, when it is an indexed series: non-empty IDs
	// are unique, so it is the one series sharing the query's ID.
	total, self := len(first.data), -1
	if len(parts) > 1 {
		total, self = sc.rank(parts, query.ID)
		v.locs = sc.locs
	} else if pos, ok := first.ids[query.ID]; ok {
		self = pos
	}
	// Stage 0 applies under the same equal-length contract as the Keogh
	// stage; other candidates keep their Kim ordering.
	var err error
	if sc.means, err = sketch.Means(query.Values, first.sketchW, sc.means); err != nil {
		return nil, stats, fmt.Errorf("query sketch: %w", err)
	}
	sc.weights = sketch.Weights(qn, first.sketchW, sc.weights)
	if cap(sc.cands) < total {
		sc.cands = make([]candidate, 0, total)
	}
	cands := sc.cands[:0]
	// paaLeft counts the queued candidates carrying a sketch bound, so a
	// bulk-pruned tail splits into stage-0 and Kim prunes; nans counts the
	// NaN bounds, which forbid the bulk prune. pending sketch-ordered
	// candidates wait in sc's block for their bounds.
	var paaLeft, nans, pending int
	for r := 0; r < total; r++ {
		if r%kimCheckEvery == 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, stats, err
			}
		}
		// Skip self-matches when the query is an indexed series.
		if r == p.Exclude || r == self {
			continue
		}
		c, i := v.locate(r)
		m := c.meta[i]
		stats.GridCells += qn * m.n
		if m.n == qn {
			sc.block[pending], sc.at[pending] = c.sketches[i], len(cands)
			cands = append(cands, candidate{rank: r})
			paaLeft++
			if pending++; pending == len(sc.block) {
				nans += sc.flush(cands, pending)
				pending = 0
			}
			continue
		}
		kim, err := kimBound(query.Values, m)
		if err != nil {
			return nil, stats, fmt.Errorf("LB_Kim to %q: %w", c.data[i].ID, err)
		}
		if kim != kim {
			nans++
		}
		cands = append(cands, candidate{key: visitKey(kim), rank: r})
	}
	if pending > 0 {
		nans += sc.flush(cands, pending)
	}
	stats.Candidates = len(cands)
	stats.BoundTime += monotonic() - boundStart
	k := p.K
	if k <= 0 || k > len(cands) {
		k = len(cands)
	}
	if k == 0 {
		stats.WallTime = time.Since(start)
		return nil, stats, nil
	}
	// Stages 0-3, fanned out: sketch check, LB_Kim check, LB_Keogh check,
	// full DTW. The visit's shared state lives in sc, so its workers
	// capture one pointer and a search allocates none of it.
	v.ctx, v.query, v.limit, v.k = ctx, query, limit, k
	v.best = make(bestK, 0, k+1)
	v.queue, v.paaLeft, v.nans = candQueue(cands), paaLeft, nans
	v.threshold.seed(limit)
	workers := first.workers
	if p.Workers > 0 {
		workers = p.Workers
	}
	v.queue.init()
	if sc.step == nil {
		sc.step = v.step
	}
	parallelFor(ctx, workers, len(cands), &v.stop, sc.step)
	stats.PrunedSketch = int(v.prunedSketch.Load())
	stats.PrunedKim = int(v.prunedKim.Load())
	stats.PrunedKeogh = int(v.prunedKeogh.Load())
	stats.Evaluated = int(v.evaluated.Load())
	stats.AbandonedDTW = int(v.abandoned.Load())
	stats.CellsSaved = int(v.cellsSaved.Load())
	stats.Cells = int(v.cells.Load())
	stats.BoundTime += time.Duration(v.boundNS.Load())
	stats.MatchTime = time.Duration(v.matchNS.Load())
	stats.DPTime = time.Duration(v.dpNS.Load())
	stats.WallTime = time.Since(start)
	// A cancelled context outranks the per-candidate errors it provoked:
	// the caller asked the search to stop, and that is the answer.
	if err := ctxErr(ctx); err != nil {
		return nil, stats, err
	}
	if v.firstErr != nil {
		return nil, stats, v.firstErr
	}

	out := []Neighbor(v.best)
	slices.SortFunc(out, func(a, b Neighbor) int {
		if a.Distance != b.Distance {
			if a.Distance < b.Distance {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.Pos, b.Pos)
	})
	stats.WallTime = time.Since(start)
	return out, stats, nil
}

// visitState is what the workers of one search's visit share: the
// candidate queue and the k-heap under mu (held only to pop a candidate
// and to update the heap), the per-stage counters, the first error and
// the stop flag, the pruning threshold — the tighter of the k-th best
// distance and the caller's range limit — and the search's read-only
// inputs. It lives in the pooled searchScratch, so the visit's workers
// share one pointer and nothing of it is allocated per search.
type visitState struct {
	mu       sync.Mutex // guards best, firstErr, queue and paaLeft
	best     bestK
	firstErr error
	queue    candQueue
	// paaLeft counts the queued candidates carrying a sketch bound; nans
	// counts the NaN bounds, which forbid the bulk prune.
	paaLeft, nans int
	// stop ends the visit: raised on the first error, and once the queue
	// is drained or its tail counted.
	stop atomic.Bool
	// The per-stage counts and stage times, added to without the lock.
	prunedSketch, prunedKim, prunedKeogh, evaluated, abandoned atomic.Int64
	cells, cellsSaved, boundNS, matchNS, dpNS                  atomic.Int64

	// threshold is the pruning threshold, private to the search.
	threshold sharedThreshold

	// The search's read-only inputs: the first part's core (one), and the
	// rank table of a multi-part search (locs, nil for one part).
	one   *Core
	locs  []loc
	ctx   context.Context
	query prepared
	limit float64
	k     int
}

// locate returns the core and position of the candidate of rank r.
func (v *visitState) locate(r int) (*Core, int) {
	if v.locs == nil {
		return v.one, r
	}
	l := v.locs[r]
	return l.c, l.pos
}

// fail records err as the visit's error, if it is the first, and stops
// the visit.
func (v *visitState) fail(err error) {
	v.mu.Lock()
	if v.firstErr == nil {
		v.firstErr = err
	}
	v.mu.Unlock()
	v.stop.Store(true)
}

// next pops the next candidate in visit order, or reports the visit
// over: the queue is empty, or its least bound exceeds the threshold and
// the whole tail is counted as pruned by its ordering bound (see
// cascade). With a NaN bound queued the tail is never counted: NaNs sit
// at its end and must be visited. paa reports that the candidate is
// ordered by its sketch bound.
func (v *visitState) next() (cd candidate, paa, ok bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.queue) == 0 {
		return candidate{}, false, false
	}
	if v.nans == 0 && exceeds(v.queue[0].key, v.threshold.Load()) {
		v.prunedSketch.Add(int64(v.paaLeft))
		v.prunedKim.Add(int64(len(v.queue) - v.paaLeft))
		v.queue = v.queue[:0]
		return candidate{}, false, false
	}
	cd = v.queue.pop()
	c, pos := v.locate(cd.rank)
	if paa = c.meta[pos].n == len(v.query.Values); paa {
		v.paaLeft--
	}
	return cd, paa, true
}

// step visits the next candidate: it runs the cascade's stages on it and
// offers a survivor's distance to the k-heap.
func (v *visitState) step(int) {
	query, threshold := v.query, &v.threshold
	cd, paa, ok := v.next()
	if !ok {
		v.stop.Store(true)
		return
	}
	c, pos := v.locate(cd.rank)
	// Stage 0: the precomputed LB_PAA sketch bound, checked before
	// LB_Kim. Pruning here costs O(1) and touches neither the raw
	// values nor the full envelope.
	if paa {
		if exceeds(cd.key, threshold.Load()) {
			v.prunedSketch.Add(1)
			return
		}
		// The ordering pass computed no LB_Kim for a sketch-ordered
		// candidate; the same call on the same metadata gives the bits
		// it would have.
		kim, err := kimBound(query.Values, c.meta[pos])
		if err != nil {
			v.fail(fmt.Errorf("LB_Kim to %q: %w", c.data[pos].ID, err))
			return
		}
		if kim > threshold.Load() {
			v.prunedKim.Add(1)
			return
		}
	} else if exceeds(cd.key, threshold.Load()) {
		v.prunedKim.Add(1) // the ordering bound is LB_Kim
		return
	}
	if env := c.envelopes[pos]; len(env.Upper) == len(query.Values) {
		// The active threshold rides into the bound itself: the partial
		// Keogh sum is a valid lower bound, so summation abandons the
		// moment it proves the candidate prunable. Abandonment implies
		// the partial sum exceeded a threshold no looser than the
		// current one (it only tightens), so the skip decision matches
		// the full evaluation's.
		kgStart := monotonic()
		kg, kgAbandoned, err := lower.KeoghUnder(query.Values, env, threshold.Load(), nil)
		v.boundNS.Add(int64(monotonic() - kgStart))
		if err != nil {
			v.fail(fmt.Errorf("LB_Keogh to %q: %w", c.data[pos].ID, err))
			return
		}
		if kgAbandoned || kg > threshold.Load() {
			v.prunedKeogh.Add(1)
			return
		}
	}
	// The candidate survived every bound: only now read its series,
	// and materialise its raw values and features if they are still
	// cold. The slot caches, so each series pays the disk read and the
	// extraction at most once, across every copy of the core.
	s := c.data[pos]
	vals, f, err := c.entry(pos)
	if err != nil {
		v.fail(fmt.Errorf("loading values of %q: %w", s.ID, err))
		return
	}
	s.Values = vals
	// Stage 3: the dynamic program itself, early-abandoning against
	// the shared threshold. The threshold only ever decreases, so a
	// stale read yields a looser budget — extra rows filled, never a
	// wrong result. Abandonment is strict (> budget), so a candidate
	// tying the k-th distance is always evaluated fully.
	res, err := c.backend.engine.DistanceUnderFeatures(v.ctx, query.Series, query.feats, s, f, threshold.Load())
	if err != nil {
		v.fail(fmt.Errorf("distance to %q: %w", s.ID, err))
		return
	}
	v.evaluated.Add(1)
	v.cells.Add(int64(res.CellsFilled))
	v.matchNS.Add(int64(res.MatchTime))
	v.dpNS.Add(int64(res.DPTime))
	if res.Abandoned {
		// The partial cost already exceeds the pruning threshold (and
		// the threshold can only have tightened since), so the
		// candidate cannot enter the heap.
		v.abandoned.Add(1)
		v.cellsSaved.Add(int64(res.BandCells - res.CellsFilled))
		return
	}
	if res.Distance > v.limit {
		// Outside the caller's range limit; not a result.
		return
	}

	nb := Neighbor{Pos: cd.rank, ID: s.ID, Label: s.Label, Distance: res.Distance}
	v.mu.Lock()
	if len(v.best) < v.k {
		// heap.Push without boxing nb: Fix at the last index sifts up.
		v.best = append(v.best, nb)
		heap.Fix(&v.best, len(v.best)-1)
	} else if v.best.worseThan(nb) {
		v.best[0] = nb
		heap.Fix(&v.best, 0)
	}
	if len(v.best) == v.k {
		// k fully-evaluated distances bound the k-th best from above.
		threshold.Tighten(v.best[0].Distance)
	}
	v.mu.Unlock()
}

// SearchBatch answers one search per entry of queries, parallelising
// across queries and dividing the remaining worker budget inside each
// query's cascade, so the pool stays bounded at the core's worker count.
// The returned stats aggregate every query; WallTime is the batch's
// elapsed time.
func (c *Core) SearchBatch(ctx context.Context, queries []series.Series, p Params) ([][]Neighbor, Stats, error) {
	if len(queries) == 0 {
		return nil, Stats{}, fmt.Errorf("batch needs at least one query: %w", ErrEmptyCollection)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.batch(ctx, queries, p, false)
}

// SearchSelf is the leave-one-out self-batch: one search per indexed
// series against the rest of the collection, query n excluding position n
// — so leave-one-out holds even when series lack the IDs the usual
// self-match skip keys on.
func (c *Core) SearchSelf(ctx context.Context, p Params) ([][]Neighbor, Stats, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.batch(ctx, c.data, p, true)
}

// batch is SearchBatch under a held read lock. With excludeSelf set the
// queries are the collection itself and query n additionally excludes
// position n — the leave-one-out self-batch — under one read lock so the
// whole workload sees a single consistent collection state.
func (c *Core) batch(ctx context.Context, queries []series.Series, p Params, excludeSelf bool) ([][]Neighbor, Stats, error) {
	var stats Stats
	start := time.Now()
	out := make([][]Neighbor, len(queries))
	// Divide the pool across queries: small batches still use every
	// worker inside each query, large batches parallelise across queries
	// with sequential cascades. Ceiling division may oversubscribe by a
	// few goroutines but never leaves workers idle on mid-size batches.
	workers := c.workers
	if p.Workers > 0 {
		workers = p.Workers
	}
	perQuery := perQueryWorkers(workers, len(queries))
	var mu sync.Mutex // guards stats and firstErr; out slots are disjoint
	var firstErr error
	var stop atomic.Bool
	parallelFor(ctx, workers, len(queries), &stop, func(n int) {
		qp := p
		qp.Workers = perQuery
		// A caller-supplied exclusion applies to every query of the
		// batch; the leave-one-out self-batch overrides it per query.
		q := queries[n]
		var err error
		if excludeSelf {
			qp.Exclude = n
			// The self-batch queries are the collection itself, whose
			// values may be cold: materialise this query's before use.
			q.Values, _, err = c.entry(n)
		}
		var nbrs []Neighbor
		var qs Stats
		if err == nil {
			nbrs, qs, err = searchLocked(ctx, q, []Part{{Core: c}}, 0, qp)
		}
		mu.Lock()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("query %d (%q): %w", n, queries[n].ID, err)
		}
		out[n] = nbrs
		stats.Merge(qs)
		mu.Unlock()
		if err != nil {
			stop.Store(true)
		}
	})
	stats.WallTime = time.Since(start)
	if err := ctxErr(ctx); err != nil {
		return nil, stats, err
	}
	if firstErr != nil {
		return nil, stats, firstErr
	}
	return out, stats, nil
}

// perQueryWorkers divides a worker budget across queries by ceiling
// division, clamped to at least 1: small batches still use every worker
// inside each query, large batches parallelise across queries with
// sequential cascades.
func perQueryWorkers(workers, queries int) int {
	if queries <= 0 {
		return 1
	}
	per := (workers + queries - 1) / queries
	if per < 1 {
		per = 1
	}
	return per
}

// ctxErr is ctx.Err() tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
