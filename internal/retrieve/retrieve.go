// Package retrieve implements the shared lower-bound-cascaded k-NN
// retrieval core behind the public sdtw.Index: one cascade — LB_Kim
// candidate ordering, LB_Keogh envelope pruning against a shared
// best-so-far threshold, and threshold-aware early-abandoning DTW fanned
// out across a bounded worker pool — parameterised by a small Backend
// interface supplying the actual distance family (the sDTW banded engine
// or the Sakoe-Chiba windowed exact-DTW pipeline).
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
	"container/heap"
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sdtw/internal/lower"
	"sdtw/internal/series"
	"sdtw/internal/sketch"
)

// Neighbor is one retrieval result — the one result type of every search
// surface, flat or sharded. ID and Label are copied from the matched
// series under the search's own view of the collection, so they belong to
// the series whose Distance is reported even if a concurrent Add/Remove
// renumbers positions before the caller looks.
type Neighbor struct {
	// Pos is the position of the neighbour in the indexed collection (as
	// of the search; Add/Remove renumber positions). A sharded search
	// reports -1: positions are per shard and mean nothing across them.
	Pos int
	// ID is the matched series' ID (empty when it has none).
	ID string
	// Label is the matched series' class label.
	Label int
	// Distance is the backend distance to the query.
	Distance float64
}

// Params carries the resolved knobs of one search. The public layer
// translates its functional options into this struct.
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
	// leave-one-out workloads whose series may lack IDs); -1 excludes
	// none. Candidates sharing the query's non-empty ID are always
	// excluded.
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
	// NoAbandon disables threshold-aware early abandonment inside the
	// dynamic program for this search (A/B measurement; never changes
	// results).
	NoAbandon bool
	// NoSketch disables the stage-0 LB_PAA sketch filter for this search
	// (A/B measurement and the exactness property tests; never changes
	// results — the bound is admissible, it only avoids work).
	NoSketch bool
	// Shared, when non-nil, replaces the search's private best-so-far
	// threshold, so pruning compounds across concurrent searches over
	// disjoint collection shards: each shard's k-th best tightens the
	// others' budgets exactly as workers tighten each other's inside one
	// search. Admissible because any k fully-evaluated distances bound
	// the global k-th best from above.
	Shared *SharedThreshold
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
	backend Backend
	workers int

	// abandon reports whether the DP early-abandons against the
	// best-so-far threshold.
	abandon bool

	// sketchW is the stage-0 PAA sketch width; 0 disables stage 0.
	sketchW int

	mu   sync.RWMutex
	data []series.Series
	// envelopes[i] is the LB_Keogh envelope of data[i] at the backend's
	// admissible radius.
	envelopes []lower.Envelope
	// sketches[i] is the stage-0 PAA sketch of envelopes[i]; nil unless
	// sketchW > 0.
	sketches []sketch.Sketch
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

// coldSlot materialises one cold series' raw values at most once, no
// matter how many concurrent searches reach its DP stage.
type coldSlot struct {
	once sync.Once
	load func() ([]float64, error)
	vals []float64
	err  error
}

func (cs *coldSlot) get() ([]float64, error) {
	cs.once.Do(func() {
		cs.vals, cs.err = cs.load()
		cs.load = nil
	})
	return cs.vals, cs.err
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
	// Load reads the raw values (called at most once per series per
	// core; the core caches the result).
	Load func() ([]float64, error)
}

// ColdAdmitter is implemented by backends that can validate a series
// joining the collection from its metadata alone (the windowed backend's
// length check). Backends without it admit cold series unchecked —
// their caches warm lazily on first Distance.
type ColdAdmitter interface {
	AdmitCold(id string, n int) error
}

// RestoreCold builds a core over store-backed series (possibly none):
// envelopes and sketches are trusted from the store, raw values load
// lazily. sketchW enables stage 0 at that width (0 disables). Backend
// caches are not warmed — the engine's feature cache fills read-through on
// first evaluation, which computes the same features Admit would have.
func RestoreCold(backend Backend, cold []ColdSeries, sketchW, workers int, abandon bool) (*Core, error) {
	if workers <= 0 {
		workers = 1
	}
	c := &Core{
		backend:   backend,
		workers:   workers,
		abandon:   abandon,
		data:      make([]series.Series, 0, len(cold)),
		meta:      make([]seriesMeta, 0, len(cold)),
		cold:      make([]*coldSlot, 0, len(cold)),
		ids:       make(map[string]int, len(cold)),
		envelopes: make([]lower.Envelope, 0, len(cold)),
	}
	if sketchW > 0 {
		c.sketchW = sketchW
		c.sketches = make([]sketch.Sketch, 0, len(cold))
	}
	admitter, _ := backend.(ColdAdmitter)
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
		if admitter != nil {
			if err := admitter.AdmitCold(cs.ID, cs.N); err != nil {
				return nil, fmt.Errorf("series %d: %w", i, err)
			}
		}
		c.data = append(c.data, series.Series{ID: cs.ID, Label: cs.Label})
		c.meta = append(c.meta, seriesMeta{n: cs.N, first: cs.First, last: cs.Last})
		c.cold = append(c.cold, &coldSlot{load: cs.Load})
		if len(cs.Envelope.Upper) != cs.N {
			return nil, fmt.Errorf("series %d (%q) has envelope length %d for %d values: %w",
				i, cs.ID, len(cs.Envelope.Upper), cs.N, ErrConfigMismatch)
		}
		c.envelopes = append(c.envelopes, cs.Envelope)
		if c.sketchW > 0 {
			if cs.Sketch.Width() != c.sketchW {
				return nil, fmt.Errorf("series %d (%q) has sketch width %d, want %d: %w",
					i, cs.ID, cs.Sketch.Width(), c.sketchW, ErrConfigMismatch)
			}
			c.sketches = append(c.sketches, cs.Sketch)
		}
	}
	return c, nil
}

// New builds a core over data (possibly none), validating every series
// and warming the backend's caches. workers bounds the query worker pool
// (<= 0 means the caller should have defaulted it; it is clamped to 1).
// abandon enables early abandonment.
func New(backend Backend, data []series.Series, workers int, abandon bool) (*Core, error) {
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
	c := &Core{
		backend:   backend,
		workers:   workers,
		abandon:   abandon,
		data:      make([]series.Series, 0, len(data)),
		ids:       make(map[string]int, len(data)),
		envelopes: make([]lower.Envelope, 0, len(data)),
	}
	for i, s := range data {
		if err := c.admitLocked(s); err != nil {
			return nil, fmt.Errorf("series %d: %w", i, err)
		}
	}
	return c, nil
}

// admitLocked validates s, warms the backend, and appends it with its
// envelope. It first drops any backend cache state already held under the
// series' ID: a removed series' in-flight search may have re-derived its
// features into the read-through cache, and admitting through that stale
// entry would permanently serve another series' features. Callers hold
// the write lock (or are constructing).
func (c *Core) admitLocked(s series.Series) error {
	if len(s.Values) == 0 {
		return fmt.Errorf("series %q: %w", s.ID, ErrEmptySeries)
	}
	if s.ID != "" {
		if _, dup := c.ids[s.ID]; dup {
			return fmt.Errorf("%w: %q", ErrDuplicateID, s.ID)
		}
	}
	c.backend.Forget(s)
	if err := c.backend.Admit(s); err != nil {
		return err
	}
	if s.ID != "" {
		c.ids[s.ID] = len(c.data)
	}
	c.data = append(c.data, s)
	n := len(s.Values)
	c.meta = append(c.meta, seriesMeta{n: n, first: s.Values[0], last: s.Values[n-1]})
	if c.cold != nil {
		c.cold = append(c.cold, nil) // values are resident
	}
	env := lower.NewEnvelope(s.Values, c.backend.EnvelopeRadius(n))
	c.envelopes = append(c.envelopes, env)
	if c.sketchW > 0 {
		sk, err := sketch.FromEnvelope(env, c.sketchW)
		if err != nil {
			return fmt.Errorf("series %q: %w", s.ID, err)
		}
		c.sketches = append(c.sketches, sk)
	}
	return nil
}

// EnableSketches switches the stage-0 LB_PAA filter on, computing a
// width-w sketch for every indexed series from its existing envelope.
// It is a no-op when sketches at that width are already on.
// Callers use it right after construction; it takes the write lock, so
// it is safe (if wasteful) later too.
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
	for i, env := range c.envelopes {
		sk, err := sketch.FromEnvelope(env, w)
		if err != nil {
			return fmt.Errorf("series %q: %w", c.data[i].ID, err)
		}
		sketches[i] = sk
	}
	c.sketchW = w
	c.sketches = sketches
	return nil
}

// SketchWidth returns the active stage-0 sketch width (0 when disabled).
func (c *Core) SketchWidth() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.sketchW
}

// Sketch returns the stage-0 sketch of the series at position i (only
// meaningful when SketchWidth > 0).
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

// Values returns the raw values of the series at position i,
// materialising them from the store if cold.
func (c *Core) Values(i int) ([]float64, error) {
	c.mu.RLock()
	s := c.data[i]
	var slot *coldSlot
	if c.cold != nil {
		slot = c.cold[i]
	}
	c.mu.RUnlock()
	if slot == nil {
		return s.Values, nil
	}
	return slot.get()
}

// Add appends a series to the collection: backend caches are warmed and
// the LB_Keogh envelope computed incrementally, under the write lock, so
// concurrent searches see either the old or the new collection.
func (c *Core) Add(s series.Series) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.admitLocked(s)
}

// Remove deletes the series with the given non-empty ID, dropping its
// envelope and any backend cache entries. Later series shift down one
// position. Removing the last series fails: Remove is the flat index's
// mutator, and a flat index is never empty (check and removal are atomic
// under the write lock).
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

// dropLocked forgets the series at position pos in the backend, drops it
// from every position-parallel slice and renumbers the IDs behind it.
// Callers hold the write lock (or own an unpublished copy).
func (c *Core) dropLocked(pos int) {
	c.backend.Forget(c.data[pos])
	delete(c.ids, c.data[pos].ID)
	c.data = append(c.data[:pos], c.data[pos+1:]...)
	c.meta = append(c.meta[:pos], c.meta[pos+1:]...)
	if c.cold != nil {
		c.cold = append(c.cold[:pos], c.cold[pos+1:]...)
	}
	c.envelopes = append(c.envelopes[:pos], c.envelopes[pos+1:]...)
	if c.sketchW > 0 {
		c.sketches = append(c.sketches[:pos], c.sketches[pos+1:]...)
	}
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
		abandon:   c.abandon,
		sketchW:   c.sketchW,
		data:      make([]series.Series, len(c.data)),
		meta:      make([]seriesMeta, len(c.meta)),
		ids:       make(map[string]int, len(c.ids)+1),
		envelopes: make([]lower.Envelope, len(c.envelopes)),
	}
	copy(nc.data, c.data)
	copy(nc.meta, c.meta)
	copy(nc.envelopes, c.envelopes)
	if c.cold != nil {
		// Slots are shared, not copied: a materialisation on either core
		// serves both (the values are immutable).
		nc.cold = make([]*coldSlot, len(c.cold))
		copy(nc.cold, c.cold)
	}
	if c.sketchW > 0 {
		nc.sketches = make([]sketch.Sketch, len(c.sketches))
		copy(nc.sketches, c.sketches)
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
// collection. The backend is shared, so its per-series caches carry
// over; the new series' one-time costs (feature extraction, envelope)
// are paid here.
func (c *Core) CloneAdd(s series.Series) (*Core, error) {
	c.mu.RLock()
	nc := c.copyLocked()
	c.mu.RUnlock()
	// nc is unpublished: no lock needed, but admitLocked's contract holds
	// (no concurrent access).
	if err := nc.admitLocked(s); err != nil {
		return nil, err
	}
	return nc, nil
}

// CloneRemove returns a copy of the core with the series of the given
// non-empty ID removed, along with the position it occupied (so callers
// maintaining position-parallel state can renumber the same way). The
// receiver is unchanged. Unlike Remove it may take the last series: the
// copy is then an empty core, which is what a drained shard holds. The
// shared backend forgets the series' cached state — in-flight searches on
// the old core may re-derive it on demand, which costs work, never
// correctness (CloneAdd forgets again before it admits under that ID).
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

// candidate is one cascade work item: a collection position, its
// ordering bound, and its LB_Kim bound. bound is the stage-0 LB_PAA
// sketch bound when paa is set (an equal-length candidate of a
// sketch-enabled search); otherwise it equals kim.
type candidate struct {
	pos   int
	bound float64
	kim   float64
	paa   bool
}

// bestK is the best-so-far heap: a max-heap on (distance, position)
// holding at most k neighbours, so the root is the current k-th best and
// the pruning threshold.
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

// SharedThreshold shares a best-so-far pruning threshold across workers —
// and, through Params.Shared, across concurrent searches over disjoint
// shards of one collection. It is monotone: Tighten only ever lowers it,
// so a stale read yields a looser threshold, which costs a bound
// evaluation but never correctness.
type SharedThreshold struct{ bits atomic.Uint64 }

// NewSharedThreshold returns a threshold seeded at limit (+Inf for an
// unbounded top-k).
func NewSharedThreshold(limit float64) *SharedThreshold {
	t := &SharedThreshold{}
	t.bits.Store(math.Float64bits(limit))
	return t
}

// Load returns the current threshold.
func (t *SharedThreshold) Load() float64 { return math.Float64frombits(t.bits.Load()) }

// Tighten lowers the threshold to v if v is smaller; larger values are
// ignored, keeping the threshold monotone under concurrent updates.
func (t *SharedThreshold) Tighten(v float64) {
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
// backend length constraints) happens here, uniformly for both backends;
// K is validated by the public layer, which owns the option surface.
func (c *Core) Search(ctx context.Context, query series.Series, p Params) ([]Neighbor, Stats, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.search(ctx, query, p)
}

// Prepare validates query and prepares it with backend, for
// SearchPrepared on any core of that backend configuration. The sharded
// layer prepares a query once and searches every shard with it.
func Prepare(backend Backend, query series.Series) (Query, error) {
	if len(query.Values) == 0 {
		return Query{}, fmt.Errorf("query: %w", ErrEmptySeries)
	}
	q, err := backend.Prepare(query)
	if err != nil {
		return Query{}, fmt.Errorf("query: %w", err)
	}
	return q, nil
}

// SearchPrepared is Search over a query some core of the same backend
// configuration already prepared. The preparation is the caller's to
// account for: the returned Stats leave ExtractTime zero.
func (c *Core) SearchPrepared(ctx context.Context, q Query, p Params) ([]Neighbor, Stats, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.searchPrepared(ctx, q, p)
}

// search is Search under a held read lock (batch calls it directly so a
// whole batch sees one consistent collection): one preparation, then the
// cascade.
func (c *Core) search(ctx context.Context, query series.Series, p Params) ([]Neighbor, Stats, error) {
	start := time.Now()
	q, err := Prepare(c.backend, query)
	if err != nil {
		return nil, Stats{}, err
	}
	nbrs, stats, err := c.searchPrepared(ctx, q, p)
	stats.ExtractTime = q.ExtractTime
	stats.WallTime = time.Since(start)
	return nbrs, stats, err
}

// searchPrepared is the cascade itself, under a held read lock.
func (c *Core) searchPrepared(ctx context.Context, query Query, p Params) ([]Neighbor, Stats, error) {
	var stats Stats
	start := time.Now()
	if err := ctxErr(ctx); err != nil {
		return nil, stats, err
	}
	limit := p.EffectiveThreshold()

	// Ordering pass: a cheap bound for every candidate, cheapest first.
	// O(1) per candidate for LB_Kim, O(W) for the stage-0 sketch bound —
	// both read only hot metadata (endpoints, sketches), never the
	// possibly-cold raw values — so this stays sequential; it also fixes
	// the processing order that lets the k-heap threshold tighten fast.
	boundStart := time.Now()
	useSketch := c.sketchW > 0 && !p.NoSketch
	var qmean []float64
	if useSketch {
		var err error
		qmean, err = sketch.Means(query.Values, c.sketchW, nil)
		if err != nil {
			return nil, stats, fmt.Errorf("query sketch: %w", err)
		}
	}
	cands := make([]candidate, 0, len(c.data))
	var kimVals [2]float64
	for i, s := range c.data {
		if i%kimCheckEvery == 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, stats, err
			}
		}
		// Skip self-matches when the query is an indexed series.
		if i == p.Exclude || (s.ID != "" && s.ID == query.ID) {
			continue
		}
		m := c.meta[i]
		stats.GridCells += len(query.Values) * m.n
		// LB_Kim sees only the first/last endpoints, so the hot two-point
		// stand-in reproduces lower.Kim over the full values bit for bit
		// (one point when the series has one).
		kimVals[0], kimVals[1] = m.first, m.last
		endpoints := kimVals[:2]
		if m.n == 1 {
			endpoints = kimVals[:1]
		}
		kim, err := lower.Kim(query.Values, endpoints, nil)
		if err != nil {
			return nil, stats, fmt.Errorf("LB_Kim to %q: %w", s.ID, err)
		}
		cd := candidate{pos: i, bound: kim, kim: kim}
		// Stage 0 applies under the same equal-length contract as the
		// Keogh stage; other candidates keep their Kim ordering.
		if useSketch && m.n == len(query.Values) {
			cd.bound = sketch.LBPAA(qmean, c.sketches[i], m.n)
			cd.paa = true
		}
		cands = append(cands, cd)
	}
	stats.Candidates = len(cands)
	stats.BoundTime += time.Since(boundStart)
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].bound != cands[b].bound {
			return cands[a].bound < cands[b].bound
		}
		return cands[a].pos < cands[b].pos
	})
	k := p.K
	if k <= 0 || k > len(cands) {
		k = len(cands)
	}
	if k == 0 {
		stats.WallTime = time.Since(start)
		return nil, stats, nil
	}
	// tightenAt is the heap occupancy at which the k-th best becomes an
	// admissible pruning threshold. Private search: the (possibly
	// truncated) heap capacity — by the time the heap is that full, its
	// root bounds everything still wanted. Shared search: strictly the
	// requested K — this shard may hold fewer than K candidates, and
	// tightening the siblings' shared budget with fewer than K real
	// distances would prune their true neighbours (and K <= 0 — a range
	// search — must never tighten past the caller's limit at all).
	tightenAt := k
	if p.Shared != nil {
		tightenAt = p.K // <= 0 or > len(cands): never reached
	}

	// Stages 1-3, fanned out: LB_Kim check, LB_Keogh check, full DTW.
	// Per-candidate accounting uses atomic counters so the fast prune
	// path never touches the heap mutex. The pruning threshold is the
	// tighter of the k-th best distance and the caller's range limit.
	best := make(bestK, 0, k+1)
	var mu sync.Mutex // guards best and firstErr
	var firstErr error
	var stop atomic.Bool
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stop.Store(true)
	}
	// The pruning threshold is private to this search unless the caller
	// supplied a shared one (sharded serving), in which case every
	// concurrent shard search reads and tightens the same value.
	threshold := p.Shared
	if threshold == nil {
		threshold = NewSharedThreshold(limit)
	} else {
		threshold.Tighten(limit)
	}
	abandon := c.abandon && !p.NoAbandon
	var prunedSketch, prunedKim, prunedKeogh, evaluated, abandoned, cells, cellsSaved atomic.Int64
	var boundNS, matchNS, dpNS atomic.Int64
	workers := c.workers
	if p.Workers > 0 {
		workers = p.Workers
	}
	parallelFor(ctx, workers, len(cands), &stop, func(n int) {
		cd := cands[n]
		s := c.data[cd.pos]
		// Stage 0: the precomputed LB_PAA sketch bound, checked before
		// LB_Kim. Pruning here costs O(1) and touches neither the raw
		// values nor the full envelope.
		if cd.paa && cd.bound > threshold.Load() {
			prunedSketch.Add(1)
			return
		}
		if cd.kim > threshold.Load() {
			prunedKim.Add(1)
			return
		}
		if env := c.envelopes[cd.pos]; len(env.Upper) == len(query.Values) {
			// The active threshold rides into the bound itself: the partial
			// Keogh sum is a valid lower bound, so summation abandons the
			// moment it proves the candidate prunable. Abandonment implies
			// the partial sum exceeded a threshold no looser than the
			// current one (it only tightens), so the skip decision matches
			// the full evaluation's. The A/B switch that disables DP
			// abandonment disables this too, so the baseline leg measures
			// full bound evaluation.
			kgBudget := math.Inf(1)
			if abandon {
				kgBudget = threshold.Load()
			}
			kgStart := time.Now()
			kg, kgAbandoned, err := lower.KeoghUnder(query.Values, env, kgBudget, nil)
			boundNS.Add(int64(time.Since(kgStart)))
			if err != nil {
				fail(fmt.Errorf("LB_Keogh to %q: %w", s.ID, err))
				return
			}
			if kgAbandoned || kg > threshold.Load() {
				prunedKeogh.Add(1)
				return
			}
		}
		// The candidate survived every bound: materialise its raw values
		// if they are still cold. The slot caches, so each series pays
		// the disk read at most once per core lifetime.
		if c.cold != nil {
			if slot := c.cold[cd.pos]; slot != nil {
				vals, err := slot.get()
				if err != nil {
					fail(fmt.Errorf("loading values of %q: %w", s.ID, err))
					return
				}
				s.Values = vals
			}
		}
		// Stage 3: the dynamic program itself, early-abandoning against
		// the shared threshold. The threshold only ever decreases, so a
		// stale read yields a looser budget — extra rows filled, never a
		// wrong result. Abandonment is strict (> budget), so a candidate
		// tying the k-th distance is always evaluated fully.
		budget := math.Inf(1)
		if abandon {
			budget = threshold.Load()
		}
		res, err := c.backend.Distance(ctx, query, s, budget)
		if err != nil {
			fail(fmt.Errorf("distance to %q: %w", s.ID, err))
			return
		}
		evaluated.Add(1)
		cells.Add(int64(res.CellsFilled))
		matchNS.Add(int64(res.MatchTime))
		dpNS.Add(int64(res.DPTime))
		if res.Abandoned {
			// The partial cost already exceeds the pruning threshold (and
			// the threshold can only have tightened since), so the
			// candidate cannot enter the heap.
			abandoned.Add(1)
			cellsSaved.Add(int64(res.BandCells - res.CellsFilled))
			return
		}
		if res.Distance > limit {
			// Outside the caller's range limit; not a result.
			return
		}

		nb := Neighbor{Pos: cd.pos, ID: s.ID, Label: s.Label, Distance: res.Distance}
		mu.Lock()
		if len(best) < k {
			heap.Push(&best, nb)
		} else if best.worseThan(nb) {
			best[0] = nb
			heap.Fix(&best, 0)
		}
		if tightenAt > 0 && len(best) == tightenAt {
			// tightenAt fully-evaluated distances bound the k-th best from
			// above — for this collection, and (when tightenAt is the full
			// requested K) for any union of shards, so a shared threshold
			// tightens admissibly across shards too.
			threshold.Tighten(best[0].Distance)
		}
		mu.Unlock()
	})
	stats.PrunedSketch = int(prunedSketch.Load())
	stats.PrunedKim = int(prunedKim.Load())
	stats.PrunedKeogh = int(prunedKeogh.Load())
	stats.Evaluated = int(evaluated.Load())
	stats.AbandonedDTW = int(abandoned.Load())
	stats.CellsSaved = int(cellsSaved.Load())
	stats.Cells = int(cells.Load())
	stats.BoundTime += time.Duration(boundNS.Load())
	stats.MatchTime = time.Duration(matchNS.Load())
	stats.DPTime = time.Duration(dpNS.Load())
	stats.WallTime = time.Since(start)
	// A cancelled context outranks the per-candidate errors it provoked:
	// the caller asked the search to stop, and that is the answer.
	if err := ctxErr(ctx); err != nil {
		return nil, stats, err
	}
	if firstErr != nil {
		return nil, stats, firstErr
	}

	out := []Neighbor(best)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Distance != out[b].Distance {
			return out[a].Distance < out[b].Distance
		}
		return out[a].Pos < out[b].Pos
	})
	stats.WallTime = time.Since(start)
	return out, stats, nil
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
		if excludeSelf {
			qp.Exclude = n
			// The self-batch queries are the collection itself, whose
			// values may be cold: materialise this query's before use.
			if c.cold != nil {
				if slot := c.cold[n]; slot != nil {
					vals, err := slot.get()
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("query %d (%q): %w", n, q.ID, err)
						}
						mu.Unlock()
						stop.Store(true)
						return
					}
					q.Values = vals
				}
			}
		}
		nbrs, qs, err := c.search(ctx, q, qp)
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
