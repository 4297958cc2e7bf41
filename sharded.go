package sdtw

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"sync/atomic"

	"sdtw/internal/lower"
	"sdtw/internal/retrieve"
)

// ShardedIndex is the horizontally partitioned form of Index, built for
// serving. Series are hash-routed by ID (FNV-1a, modulo the shard count)
// across N shards, each a retrieve.Core holding its series' features and
// envelopes, all over one backend.
//
// Every shard serves reads from copy-on-write snapshots: Add and Remove
// build a new core beside the published one and publish it with one
// atomic store, so searches never block behind mutations, and a mutation
// never blocks behind a slow search. On a store-backed index a mutation
// is published only after its record or tombstone reached the store, so
// no search ever sees a write that then fails.
//
// A search is the flat search over the union of the shards: one cascade
// whose candidates rank by insertion sequence, as a flat index's do by
// position. So for any shard count Search returns hits bit-identical
// (IDs and distances, ties included) to a single Index.Search over the
// same collection, and at one worker the same SearchStats work counts.
// Unlike Index, a ShardedIndex may be empty: a serving collection starts
// empty and fills through Add, and any shard (or all of them) may drain
// through Remove and refill. An empty shard is an empty core, not a
// special state, and a drained index still exports with SaveStore and
// reopens. Results are identified by series ID: they carry Pos -1, since
// sharding makes positions meaningless.
type ShardedIndex struct {
	// family holds the one backend (and engine) every shard computes
	// through.
	family backendFamily
	shards []shardSlot
	// nextSeq is the insertion sequence the next Add takes.
	nextSeq atomic.Uint64

	// Store-backed state (stores is non-nil only for indexes opened with
	// OpenShardedIndex / OpenShardedWindowedIndex): one segment store per
	// shard; mutations write through.
	storeSet

	// segRecords is Options.StoreSegmentRecords, kept for SaveStore
	// (zero means the store default).
	segRecords int
}

// shardSlot is one shard: the published snapshot, and the lock that
// serialises the shard's copy-on-write writers. A snapshot is immutable:
// its core, and in Seqs the index-wide insertion sequence of the series
// at each of the core's positions — the order a search breaks ties by.
// Readers load it atomically and use it for a whole search; writers
// build the next one beside it.
type shardSlot struct {
	mu   sync.Mutex
	snap atomic.Pointer[retrieve.Part]
}

// Hit is Neighbor under the name the sharded surfaces use; a sharded
// result is identified by its ID and carries Pos -1.
type Hit = Neighbor

// ErrNoID reports a series without an ID reaching a surface that keys on
// IDs: a sharded index routes by them, and a store keys removals on them.
var ErrNoID = errors.New("sharded collections need non-empty series IDs")

// route maps a series ID to its shard: FNV-1a over the ID, modulo the
// shard count. A store root's shard directories are laid out by it.
func route(id string, shards int) int {
	h := fnv.New64a()
	h.Write([]byte(id))
	return int(h.Sum64() % uint64(shards))
}

// NewShardedIndex builds a sharded index over data (which may be nil or
// empty) using the sDTW engine configured by opts, partitioned across
// shards. Every series needs a non-empty, unique ID. Construction pays
// every series' one-time costs (feature extraction, LB_Keogh envelope)
// and each shard's core holds the results beside its series. Shards are
// built one after another, each on the index's whole worker pool
// (Options.Workers).
func NewShardedIndex(data []Series, shards int, opts Options) (*ShardedIndex, error) {
	f, err := engineFamily(opts)
	if err != nil {
		return nil, err
	}
	return newShardedIndex(f, data, shards, opts.StoreSegmentRecords)
}

// NewShardedWindowedIndex builds a sharded index answering exact
// (optionally Sakoe-Chiba-windowed) DTW queries over an equal-length
// collection. Unlike the engine variant it needs at least one series:
// the windowed family's geometry is fixed by the series length.
func NewShardedWindowedIndex(data []Series, shards, radius int) (*ShardedIndex, error) {
	f, err := windowedFamilyOver(data, radius)
	if err != nil {
		return nil, err
	}
	return newShardedIndex(f, data, shards, 0)
}

// newShardedIndex builds the in-RAM sharded index of a family over data.
// The initial insertion sequence is the position in data, so a search
// over the fresh index breaks distance ties exactly like an Index over
// the same slice.
func newShardedIndex(f backendFamily, data []Series, shards, segRecords int) (*ShardedIndex, error) {
	if shards < 1 {
		return nil, fmt.Errorf("sdtw: a sharded index needs at least one shard, got %d", shards)
	}
	parts := make([][]Series, shards)
	seqs := make([][]uint64, shards)
	seen := make(map[string]bool, len(data))
	for i, s := range data {
		if s.ID == "" {
			return nil, fmt.Errorf("sdtw: series %d: %w", i, ErrNoID)
		}
		if seen[s.ID] {
			return nil, fmt.Errorf("sdtw: %w: %q", ErrDuplicateID, s.ID)
		}
		seen[s.ID] = true
		sh := route(s.ID, shards)
		parts[sh] = append(parts[sh], s)
		seqs[sh] = append(seqs[sh], uint64(i))
	}
	si, err := assemble(f, seqs, uint64(len(data)), func(i int) (*retrieve.Core, error) {
		return retrieve.New(f.backend, parts[i], f.workers, true)
	})
	if err != nil {
		return nil, err
	}
	si.segRecords = segRecords
	return si, nil
}

// restoreShardedIndex builds a sharded index over per-shard cold series
// (envelopes and sketches resident at sketchW, raw values lazy) with
// their insertion sequences; empty shards are empty slices.
func restoreShardedIndex(f backendFamily, sketchW int, parts [][]retrieve.ColdSeries, seqs [][]uint64, nextSeq uint64) (*ShardedIndex, error) {
	if len(parts) < 1 || len(parts) != len(seqs) {
		return nil, fmt.Errorf("sdtw: restoring %d shard parts with %d sequence lists: %w", len(parts), len(seqs), ErrConfigMismatch)
	}
	return assemble(f, seqs, nextSeq, func(i int) (*retrieve.Core, error) {
		return retrieve.RestoreCold(f.backend, parts[i], sketchW, f.workers, true)
	})
}

// assemble builds one shard per entry of seqs: build constructs the
// shard's core over the family's backend (an empty one for a shard
// holding no series). It is the one construction path; building and
// restoring differ only in the core constructor they pass.
func assemble(f backendFamily, seqs [][]uint64, nextSeq uint64,
	build func(shard int) (*retrieve.Core, error)) (*ShardedIndex, error) {
	si := &ShardedIndex{family: f, shards: make([]shardSlot, len(seqs))}
	si.nextSeq.Store(nextSeq)
	for i := range si.shards {
		core, err := build(i)
		if err != nil {
			return nil, fmt.Errorf("sdtw: shard %d: %w", i, err)
		}
		si.shards[i].snap.Store(&retrieve.Part{Core: core, Seqs: seqs[i]})
	}
	return si, nil
}

// slot returns the shard a series ID routes to.
func (si *ShardedIndex) slot(id string) *shardSlot { return &si.shards[route(id, len(si.shards))] }

// Search runs one cascade over every shard's snapshot
// (retrieve.SearchParts): the flat search over the union, returning the
// hits and SearchStats an Index over the same collection would. It
// accepts the same options as Index.Search except WithExclude, whose
// positions are meaningless across shards (rely on the ID-based
// self-exclusion instead). An empty index validates the query like a
// full one, then returns no hits and no error.
func (si *ShardedIndex) Search(ctx context.Context, query Series, opts ...SearchOption) ([]Hit, SearchStats, error) {
	p, err := resolveSearch(opts)
	if err != nil {
		return nil, SearchStats{}, err
	}
	if p.Exclude != -1 {
		return nil, SearchStats{}, fmt.Errorf("sdtw: WithExclude is positional and does not apply across shards; remove series by ID instead")
	}
	parts := make([]retrieve.Part, len(si.shards))
	for i := range si.shards {
		parts[i] = *si.shards[i].snap.Load()
	}
	// The shard the query's ID routes to (where a member query finds its
	// features) prepares it. It exists even when empty, so an empty index
	// refuses a query a full one would.
	hits, stats, err := retrieve.SearchParts(ctx, query, parts, route(query.ID, len(si.shards)), p)
	if err != nil {
		return nil, stats, fmt.Errorf("sdtw: %w", err)
	}
	return hits, stats, nil
}

// Add routes s to its shard and publishes a copy-on-write snapshot with
// it admitted, paying its one-time costs (feature extraction, LB_Keogh
// envelope) outside any search's path. The series needs a non-empty ID,
// unique across the index (equal IDs route to the same shard, so the
// shard's duplicate check is the index-wide one). Searches already
// running keep their pre-Add snapshot; searches starting after the
// publish see s.
func (si *ShardedIndex) Add(s Series) error {
	if si.stores != nil {
		return si.add(route(s.ID, len(si.shards)), s, func(persist func(uint64, lower.Envelope) error) error {
			return si.admit(s, persist)
		})
	}
	if err := si.admit(s, nil); err != nil {
		return fmt.Errorf("sdtw: Add: %w", err)
	}
	return nil
}

// admit stages the snapshot of s's shard with s admitted, under the
// shard's writer lock, then hands the staged insertion sequence and
// envelope to persist (nil in RAM) and publishes only once persist
// succeeds. A failed persist drops the staged core, and with it
// everything admission derived, so nothing of the series stays visible.
func (si *ShardedIndex) admit(s Series, persist func(seq uint64, env lower.Envelope) error) error {
	if s.ID == "" {
		return ErrNoID
	}
	sl := si.slot(s.ID)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	cur := sl.snap.Load()
	core, err := cur.Core.CloneAdd(s)
	if err != nil {
		return err
	}
	seq := si.nextSeq.Add(1) - 1
	if persist != nil {
		if err := persist(seq, core.Envelope(core.Len()-1)); err != nil {
			return err
		}
	}
	sl.snap.Store(&retrieve.Part{Core: core, Seqs: append(slices.Clip(cur.Seqs), seq)})
	return nil
}

// Remove deletes the series with the given non-empty ID. Shards may
// drain to empty; so may the whole index.
func (si *ShardedIndex) Remove(id string) error {
	if si.stores != nil {
		return si.remove(route(id, len(si.shards)), id, func(tombstone func(uint64) error) error {
			return si.drop(id, tombstone)
		})
	}
	if err := si.drop(id, nil); err != nil {
		return fmt.Errorf("sdtw: Remove: %w", err)
	}
	return nil
}

// drop stages the snapshot of id's shard without the series, under the
// shard's writer lock, then hands the series' insertion sequence to
// persist (nil in RAM) and publishes only once persist succeeds.
func (si *ShardedIndex) drop(id string, persist func(seq uint64) error) error {
	if id == "" {
		return fmt.Errorf("Remove needs a non-empty ID: %w", ErrNoID)
	}
	sl := si.slot(id)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	cur := sl.snap.Load()
	core, pos, err := cur.Core.CloneRemove(id)
	if err != nil {
		return err
	}
	if persist != nil {
		if err := persist(cur.Seqs[pos]); err != nil {
			return err
		}
	}
	sl.snap.Store(&retrieve.Part{Core: core, Seqs: slices.Delete(slices.Clone(cur.Seqs), pos, pos+1)})
	return nil
}

// Len returns the total number of indexed series across all shards.
func (si *ShardedIndex) Len() int {
	n := 0
	for i := range si.shards {
		n += len(si.shards[i].snap.Load().Seqs)
	}
	return n
}

// Shards returns the shard count.
func (si *ShardedIndex) Shards() int { return len(si.shards) }

// ShardSizes returns the per-shard series counts (hash-routing balance).
func (si *ShardedIndex) ShardSizes() []int {
	sizes := make([]int, len(si.shards))
	for i := range si.shards {
		sizes[i] = len(si.shards[i].snap.Load().Seqs)
	}
	return sizes
}

// Radius returns the effective Sakoe-Chiba warping window in samples for
// windowed sharded indexes, and -1 for engine-backed ones.
func (si *ShardedIndex) Radius() int { return si.family.radius }
