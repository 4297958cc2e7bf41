// Package shard implements the N-way sharded retrieval layer behind the
// sdtwd search service: series are hash-routed by ID across independent
// retrieve.Core shards, searches fan out across the shards concurrently
// and merge their top-k through one shared best-so-far threshold (so
// pruning compounds across shards exactly as it does across the workers
// inside one search), and each shard serves reads from copy-on-write
// snapshots — an Add or Remove builds a new core beside the old one and
// publishes it with a single atomic store, so searches never block
// behind mutations.
//
// A shard may hold zero series — a serving cluster starts empty, and any
// shard may drain — and an empty shard is an empty retrieve.Core, not a
// special state: it fills through the same CloneAdd and drains through
// the same CloneRemove as a full one.
//
// Sharded search is exact: for any shard count, the merged top-k is
// bit-identical (IDs and distances) to a single-core search over the
// same collection. Per-shard results are merged by (distance, insertion
// sequence); within a shard, local positions preserve insertion order,
// so the shard-local tie-breaks agree with the global ones.
package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sdtw/internal/lower"
	"sdtw/internal/retrieve"
	"sdtw/internal/series"
)

// ErrNoID reports a series without an ID reaching the sharded layer:
// hash routing (and Remove) key on non-empty IDs.
var ErrNoID = errors.New("sharded collections need non-empty series IDs")

// Config assembles a Cluster.
type Config struct {
	// Shards is the shard count (>= 1).
	Shards int
	// NewBackend builds the distance backend for one shard. Each shard
	// owns its backend so per-series caches (feature extraction) never
	// contend across shards.
	NewBackend func(shard int) (retrieve.Backend, error)
	// Workers is the total search worker budget, divided across the
	// non-empty shards per search (<= 0 is clamped to the shard count).
	Workers int
	// SketchWidth enables the stage-0 LB_PAA filter at that width on
	// every shard core (0 disables it).
	SketchWidth int
}

// Hit is one merged retrieval result: retrieve's one result type with Pos
// set to -1, since sharding renumbers positions per shard and results are
// identified by series ID.
type Hit = retrieve.Neighbor

// snapshot is one shard's immutable published state. Readers load it
// atomically and use it for a whole search; writers clone it, mutate the
// clone, and publish the result.
type snapshot struct {
	core *retrieve.Core
	// seqs[i] is the cluster-wide insertion sequence of the series at
	// local position i — the global tie-break order merged results use.
	seqs []uint64
}

// slot is one shard: the published snapshot plus the writer lock that
// serialises its copy-on-write mutations.
type slot struct {
	mu   sync.Mutex
	snap atomic.Pointer[snapshot]
}

// Cluster is the sharded collection. It is safe for concurrent use:
// searches are lock-free against mutations (they run on published
// snapshots), mutations serialise per shard.
type Cluster struct {
	backends []retrieve.Backend
	workers  int
	sketchW  int
	slots    []slot
	nextSeq  atomic.Uint64
}

// Route maps a series ID to its shard: FNV-1a over the ID, modulo the
// shard count. Exported so tools (and tests) can predict placement.
func Route(id string, shards int) int {
	h := fnv.New64a()
	h.Write([]byte(id))
	return int(h.Sum64() % uint64(shards))
}

// New builds a cluster over data (which may be empty — a serving cluster
// typically starts empty and fills through Add). Every series needs a
// non-empty, unique ID. The initial insertion sequence is the position
// in data, so a search over the freshly built cluster breaks distance
// ties exactly like an unsharded index over the same slice.
func New(cfg Config, data []series.Series) (*Cluster, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	parts, seqs, err := partition(cfg, data)
	if err != nil {
		return nil, err
	}
	return assemble(cfg, seqs, uint64(len(data)), func(i int, b retrieve.Backend, workers int) (*retrieve.Core, error) {
		core, err := retrieve.New(b, parts[i], workers, true)
		if err != nil || cfg.SketchWidth <= 0 {
			return core, err
		}
		return core, core.EnableSketches(cfg.SketchWidth)
	})
}

// RestoreCold rebuilds a cluster from per-shard store-backed cold series
// (envelopes and sketches resident, raw values lazy). parts and seqs are
// indexed by shard; empty shards are empty slices. cfg.SketchWidth must
// match the width of the stored sketches.
func RestoreCold(cfg Config, parts [][]retrieve.ColdSeries, seqs [][]uint64, nextSeq uint64) (*Cluster, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if len(parts) != cfg.Shards || len(seqs) != cfg.Shards {
		return nil, fmt.Errorf("store has %d/%d shard entries, want %d: %w",
			len(parts), len(seqs), cfg.Shards, retrieve.ErrConfigMismatch)
	}
	for i, part := range parts {
		if len(seqs[i]) != len(part) {
			return nil, fmt.Errorf("shard %d has %d sequence numbers for %d series: %w",
				i, len(seqs[i]), len(part), retrieve.ErrConfigMismatch)
		}
	}
	return assemble(cfg, seqs, nextSeq, func(i int, b retrieve.Backend, workers int) (*retrieve.Core, error) {
		return retrieve.RestoreCold(b, parts[i], cfg.SketchWidth, workers, true)
	})
}

// check rejects a configuration no cluster can be built from.
func (cfg Config) check() error {
	if cfg.Shards < 1 {
		return fmt.Errorf("cluster needs at least one shard, got %d", cfg.Shards)
	}
	if cfg.NewBackend == nil {
		return fmt.Errorf("cluster needs a backend constructor")
	}
	return nil
}

// partition validates data and splits it (order-preserving) across the
// shards, pairing every series with its global insertion sequence.
func partition(cfg Config, data []series.Series) ([][]series.Series, [][]uint64, error) {
	parts := make([][]series.Series, cfg.Shards)
	seqs := make([][]uint64, cfg.Shards)
	seen := make(map[string]bool, len(data))
	for i, s := range data {
		if s.ID == "" {
			return nil, nil, fmt.Errorf("series %d: %w", i, ErrNoID)
		}
		if seen[s.ID] {
			return nil, nil, fmt.Errorf("%w: %q", retrieve.ErrDuplicateID, s.ID)
		}
		seen[s.ID] = true
		sh := Route(s.ID, cfg.Shards)
		parts[sh] = append(parts[sh], s)
		seqs[sh] = append(seqs[sh], uint64(i))
	}
	return parts, seqs, nil
}

// assemble builds the cluster around per-shard cores: one backend per
// shard, and the core build constructs over it (an empty one for a shard
// holding no series). It is the one construction path; New and
// RestoreCold differ only in the core constructor they pass.
func assemble(cfg Config, seqs [][]uint64, nextSeq uint64,
	build func(shard int, b retrieve.Backend, workers int) (*retrieve.Core, error)) (*Cluster, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = cfg.Shards
	}
	c := &Cluster{
		backends: make([]retrieve.Backend, cfg.Shards),
		workers:  workers,
		sketchW:  cfg.SketchWidth,
		slots:    make([]slot, cfg.Shards),
	}
	c.nextSeq.Store(nextSeq)
	for i := range c.slots {
		b, err := cfg.NewBackend(i)
		if err != nil {
			return nil, fmt.Errorf("shard %d backend: %w", i, err)
		}
		c.backends[i] = b
		core, err := build(i, b, workers)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		c.slots[i].snap.Store(&snapshot{core: core, seqs: append([]uint64(nil), seqs[i]...)})
	}
	return c, nil
}

// SketchWidth returns the cluster's stage-0 sketch width (0 when the
// sketch filter is disabled).
func (c *Cluster) SketchWidth() int { return c.sketchW }

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.slots) }

// Len returns the total number of indexed series across all shards.
func (c *Cluster) Len() int {
	n := 0
	for i := range c.slots {
		n += c.slots[i].snap.Load().core.Len()
	}
	return n
}

// Sizes returns the per-shard series counts.
func (c *Cluster) Sizes() []int {
	sizes := make([]int, len(c.slots))
	for i := range c.slots {
		sizes[i] = c.slots[i].snap.Load().core.Len()
	}
	return sizes
}

// Add routes s to its shard and publishes a copy-on-write snapshot with
// it admitted, returning the cluster-wide insertion sequence assigned to
// the series (the storage layer keys tombstones on it). The series needs
// a non-empty ID, unique across the cluster (equal IDs route to the same
// shard, so the shard-local duplicate check is the cluster-wide one).
// Searches already running keep their pre-Add snapshot; searches
// starting after the store see s.
func (c *Cluster) Add(s series.Series) (uint64, error) {
	if s.ID == "" {
		return 0, ErrNoID
	}
	sh := Route(s.ID, len(c.slots))
	sl := &c.slots[sh]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	cur := sl.snap.Load()
	core, err := cur.core.CloneAdd(s)
	if err != nil {
		return 0, err
	}
	seq := c.nextSeq.Add(1) - 1
	seqs := append(append(make([]uint64, 0, len(cur.seqs)+1), cur.seqs...), seq)
	sl.snap.Store(&snapshot{core: core, seqs: seqs})
	return seq, nil
}

// Remove deletes the series with the given non-empty ID from its shard
// via a copy-on-write snapshot, returning the insertion sequence the
// series held (the storage layer keys tombstones on it). A shard may
// drain to empty, and so may the cluster as a whole.
func (c *Cluster) Remove(id string) (uint64, error) {
	if id == "" {
		return 0, fmt.Errorf("Remove needs a non-empty ID: %w", ErrNoID)
	}
	sh := Route(id, len(c.slots))
	sl := &c.slots[sh]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	cur := sl.snap.Load()
	core, pos, err := cur.core.CloneRemove(id)
	if err != nil {
		return 0, err
	}
	seq := cur.seqs[pos]
	seqs := make([]uint64, 0, len(cur.seqs)-1)
	seqs = append(seqs, cur.seqs[:pos]...)
	seqs = append(seqs, cur.seqs[pos+1:]...)
	sl.snap.Store(&snapshot{core: core, seqs: seqs})
	return seq, nil
}

// Seq returns the insertion sequence of the series with the given
// non-empty ID without removing it: the storage layer tombstones a
// series on disk before it unpublishes it from the cluster.
func (c *Cluster) Seq(id string) (uint64, error) {
	if id == "" {
		return 0, fmt.Errorf("Seq needs a non-empty ID: %w", ErrNoID)
	}
	snap := c.slots[Route(id, len(c.slots))].snap.Load()
	pos, ok := snap.core.Pos(id)
	if !ok {
		return 0, fmt.Errorf("%w: %q", retrieve.ErrUnknownID, id)
	}
	return snap.seqs[pos], nil
}

// Envelope returns the LB_Keogh envelope the shard core computed when it
// admitted the series with the given ID — the storage layer persists it
// beside the series — and the zero Envelope for an ID the cluster does
// not hold. Only meaningful when Cascade reports true.
func (c *Cluster) Envelope(id string) lower.Envelope {
	snap := c.slots[Route(id, len(c.slots))].snap.Load()
	if pos, ok := snap.core.Pos(id); ok {
		return snap.core.Envelope(pos)
	}
	return lower.Envelope{}
}

// hit is a merged result before the sequence tie-break is dropped.
type hit struct {
	Hit
	seq uint64
}

// Search fans the query out across every non-empty shard concurrently
// and merges the per-shard top-k into the cluster top-k. All shard
// searches read and tighten one shared best-so-far threshold
// (Params.Shared), so a tight k-th best found on one shard prunes
// candidates on every other — the atomic-threshold idiom of the
// in-search worker pool lifted one level up. The merge orders by
// (distance, insertion sequence), which reproduces an unsharded index's
// (distance, position) order bit-for-bit.
//
// The query is prepared once per call, not once per shard: all shards
// share one backend configuration, so the backend of the shard the
// query's ID routes to (where a member query finds its cached features)
// prepares it for all.
//
// p.Exclude is positional and therefore meaningless across shards; use
// retrieve.DefaultParams (Exclude −1) and rely on the ID-based
// self-exclusion. A cancelled ctx stops every shard search promptly.
func (c *Cluster) Search(ctx context.Context, query series.Series, p retrieve.Params) ([]Hit, retrieve.Stats, error) {
	start := time.Now()
	snaps := make([]*snapshot, 0, len(c.slots))
	for i := range c.slots {
		// seqs is position-parallel to the core: empty means no series.
		if snap := c.slots[i].snap.Load(); len(snap.seqs) > 0 {
			snaps = append(snaps, snap)
		}
	}
	var stats retrieve.Stats
	if len(snaps) == 0 {
		// An empty cluster answers with no neighbours — a serving
		// collection legitimately starts empty.
		if len(query.Values) == 0 {
			return nil, stats, fmt.Errorf("query: %w", retrieve.ErrEmptySeries)
		}
		stats.WallTime = time.Since(start)
		return nil, stats, nil
	}

	q, err := retrieve.Prepare(c.backends[Route(query.ID, len(c.slots))], query)
	if err != nil {
		return nil, stats, err
	}

	rp := p
	rp.Shared = retrieve.NewSharedThreshold(p.EffectiveThreshold())
	workers := rp.Workers
	if workers <= 0 {
		workers = c.workers
	}
	// Ceiling-divide the worker budget across shards (the batch idiom):
	// every shard keeps at least one worker, small clusters keep full
	// in-shard parallelism.
	rp.Workers = (workers + len(snaps) - 1) / len(snaps)
	if rp.Workers < 1 {
		rp.Workers = 1
	}

	type shardOut struct {
		hits []hit
		st   retrieve.Stats
		err  error
	}
	outs := make([]shardOut, len(snaps))
	var wg sync.WaitGroup
	for i, snap := range snaps {
		wg.Add(1)
		go func(i int, snap *snapshot) {
			defer wg.Done()
			nbrs, st, err := snap.core.SearchPrepared(ctx, q, rp)
			out := shardOut{st: st, err: err}
			if err == nil && len(nbrs) > 0 {
				out.hits = make([]hit, len(nbrs))
				for j, nb := range nbrs {
					seq := snap.seqs[nb.Pos]
					nb.Pos = -1 // shard-local, meaningless to the caller
					out.hits[j] = hit{Hit: nb, seq: seq}
				}
			}
			outs[i] = out
		}(i, snap)
	}
	wg.Wait()

	stats.ExtractTime = q.ExtractTime
	merged := make([]hit, 0, len(snaps)*max(1, rp.K))
	for _, out := range outs {
		stats.Merge(out.st)
		if out.err != nil {
			stats.WallTime = time.Since(start)
			return nil, stats, out.err
		}
		merged = append(merged, out.hits...)
	}
	sort.Slice(merged, func(a, b int) bool {
		if merged[a].Distance != merged[b].Distance {
			return merged[a].Distance < merged[b].Distance
		}
		return merged[a].seq < merged[b].seq
	})
	if rp.K > 0 && len(merged) > rp.K {
		merged = merged[:rp.K]
	}
	hits := make([]Hit, len(merged))
	for i, h := range merged {
		hits[i] = h.Hit
	}
	stats.WallTime = time.Since(start)
	return hits, stats, nil
}

// ShardSnapshot captures shard i's published state for persistence: the
// series, their envelopes, and their insertion sequences (all empty for
// an empty shard).
func (c *Cluster) ShardSnapshot(i int) ([]series.Series, []lower.Envelope, []uint64) {
	snap := c.slots[i].snap.Load()
	data, envs := snap.core.Snapshot()
	seqs := append([]uint64(nil), snap.seqs...)
	return data, envs, seqs
}

// NextSeq exposes the cluster's next insertion sequence for persistence.
func (c *Cluster) NextSeq() uint64 { return c.nextSeq.Load() }
