package sdtw

import (
	"context"
	"fmt"

	"sdtw/internal/retrieve"
	"sdtw/internal/shard"
)

// ShardedIndex is the horizontally partitioned form of Index, built for
// serving: series are hash-routed by ID across N independent shards,
// searches fan out across the shards concurrently and merge their top-k
// through one shared best-so-far threshold (pruning compounds across
// shards exactly as it does across the workers inside one search), and
// every shard serves reads from copy-on-write snapshots — Add and Remove
// publish a new shard state with one atomic store, so searches never
// block behind mutations, and a mutation never blocks behind a slow
// search.
//
// Sharded search is exact: for any shard count, Search returns hits
// bit-identical (IDs and distances) to a single Index.Search over the
// same collection, including distance-tie ordering. Unlike Index, a
// ShardedIndex may be empty — a serving collection starts empty and
// fills through Add, and any shard (or all of them) may drain through
// Remove and refill; a drained index still exports with SaveStore and
// reopens — and its results are identified by series ID: they carry Pos
// -1, since sharding makes positions meaningless.
type ShardedIndex struct {
	cluster *shard.Cluster
	engines []*Engine // per-shard engines; nil for the windowed backend
	family  backendFamily
	shards  int

	// Store-backed state (stores is non-nil only for indexes opened with
	// OpenShardedIndex / OpenShardedWindowedIndex): one segment store per
	// shard; mutations write through.
	storeSet

	// segRecords is Options.StoreSegmentRecords, kept for SaveStore
	// (zero means the store default).
	segRecords int
}

// Hit is Neighbor under the name the sharded surfaces use; a sharded
// result is identified by its ID and carries Pos -1.
type Hit = Neighbor

// ErrNoID reports a series without an ID reaching a sharded surface:
// hash routing (and Remove) key on non-empty IDs.
var ErrNoID = shard.ErrNoID

// NewShardedIndex builds a sharded index over data (which may be nil or
// empty) using the sDTW engine configured by opts, partitioned across
// shards. Every series needs a non-empty, unique ID. Each shard owns its
// own engine, so feature caches never contend across shards.
func NewShardedIndex(data []Series, shards int, opts Options) (*ShardedIndex, error) {
	return newShardedIndex(engineFamily(opts), data, shards, resolveSketchWidth(opts.SketchWidth), opts.StoreSegmentRecords)
}

// NewShardedWindowedIndex builds a sharded index answering exact
// (optionally Sakoe-Chiba-windowed) DTW queries over an equal-length
// collection. Unlike the engine variant it needs at least one series:
// the windowed backend's geometry is fixed by the series length.
func NewShardedWindowedIndex(data []Series, shards, radius int) (*ShardedIndex, error) {
	f, err := windowedFamilyOver(data, radius)
	if err != nil {
		return nil, err
	}
	return newShardedIndex(f, data, shards, DefaultSketchWidth, 0)
}

// newShardedIndex builds the in-RAM sharded index of a family over data.
func newShardedIndex(f backendFamily, data []Series, shards, sketchW, segRecords int) (*ShardedIndex, error) {
	cfg, engines := f.shardConfig(shards, sketchW)
	cluster, err := shard.New(cfg, data)
	if err != nil {
		return nil, fmt.Errorf("sdtw: %w", err)
	}
	return &ShardedIndex{cluster: cluster, engines: engines, family: f, shards: shards, segRecords: segRecords}, nil
}

// shardConfig is the one shard.Config: every shard gets its own backend
// of the family. The returned engines (nil for the windowed family) fill
// in as the cluster builds its backends.
func (f backendFamily) shardConfig(shards, sketchW int) (shard.Config, []*Engine) {
	var engines []*Engine
	if f.kind == snapshotKindEngine {
		// A bad shard count is shard's to refuse; it must not panic here first.
		engines = make([]*Engine, max(shards, 0))
	}
	return shard.Config{
		Shards: shards,
		NewBackend: func(i int) (retrieve.Backend, error) {
			b, engine, err := f.newBackend()
			if engines != nil {
				engines[i] = engine
			}
			return b, err
		},
		Workers:     f.workers,
		SketchWidth: sketchW,
	}, engines
}

// Search fans the query out across every non-empty shard and merges the
// per-shard results into the exact cluster top-k, ordered by (distance,
// insertion order). It accepts the same options as Index.Search except
// WithExclude, whose positions are meaningless across shards (rely on
// the ID-based self-exclusion instead). An empty index returns no hits
// and no error.
func (si *ShardedIndex) Search(ctx context.Context, query Series, opts ...SearchOption) ([]Hit, SearchStats, error) {
	p, err := resolveSearch(opts)
	if err != nil {
		return nil, SearchStats{}, err
	}
	if p.Exclude != -1 {
		return nil, SearchStats{}, fmt.Errorf("sdtw: WithExclude is positional and does not apply across shards; remove series by ID instead")
	}
	hits, stats, err := si.cluster.Search(ctx, query, p)
	if err != nil {
		return nil, stats, fmt.Errorf("sdtw: %w", err)
	}
	return hits, stats, nil
}

// Add routes s to its shard and publishes a copy-on-write snapshot with
// it admitted, paying its one-time costs (feature extraction, LB_Keogh
// envelope) outside any search's path. The series needs a non-empty ID,
// unique across the cluster.
func (si *ShardedIndex) Add(s Series) error {
	if si.stores != nil {
		return si.addStore(s)
	}
	if _, err := si.cluster.Add(s); err != nil {
		return fmt.Errorf("sdtw: Add: %w", err)
	}
	return nil
}

// Remove deletes the series with the given non-empty ID. Shards may
// drain to empty; so may the whole index.
func (si *ShardedIndex) Remove(id string) error {
	if si.stores != nil {
		return si.removeStore(id)
	}
	if _, err := si.cluster.Remove(id); err != nil {
		return fmt.Errorf("sdtw: Remove: %w", err)
	}
	return nil
}

// Len returns the total number of indexed series across all shards.
func (si *ShardedIndex) Len() int { return si.cluster.Len() }

// Shards returns the shard count.
func (si *ShardedIndex) Shards() int { return si.shards }

// ShardSizes returns the per-shard series counts (hash-routing balance).
func (si *ShardedIndex) ShardSizes() []int { return si.cluster.Sizes() }

// Radius returns the effective Sakoe-Chiba warping window in samples for
// windowed sharded indexes, and -1 for engine-backed ones.
func (si *ShardedIndex) Radius() int { return si.family.radius }
