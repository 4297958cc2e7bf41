package a

import (
	"context"
	"sync"

	"sdtw/internal/core"
	"sdtw/internal/dtw"
	"sdtw/internal/retrieve"
)

type index struct {
	mu     sync.RWMutex
	data   [][]float64
	engine *core.Engine
}

// BadSearch runs the DP while holding the write lock, serializing every
// reader behind the slowest DP.
func (ix *index) BadSearch(q []float64) float64 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return dtw.Distance(q, ix.data[0]) // want `exclusively locked`
}

// ReadSearch runs the DP under RLock: readers share, sanctioned.
func (ix *index) ReadSearch(q []float64) float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return dtw.Distance(q, ix.data[0])
}

// CopySearch snapshots under the lock and runs the DP after releasing
// it: the COW discipline of the sharded index.
func (ix *index) CopySearch(q []float64) float64 {
	ix.mu.Lock()
	snap := ix.data[0]
	ix.mu.Unlock()
	return dtw.Distance(q, snap)
}

// Mutate holds the lock only for the mutation; the DP call after the
// explicit Unlock is outside the region.
func (ix *index) Mutate(q []float64, extra []float64) {
	ix.mu.Lock()
	ix.data = append(ix.data, extra)
	ix.mu.Unlock()
	_ = dtw.Distance(q, extra)
}

// BadAdd extracts the new series' features while holding the write
// lock, stalling every search behind the extraction.
func (ix *index) BadAdd(s []float64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	_ = ix.engine.Extract(s) // want `core.Extract .* exclusively locked`
	ix.data = append(ix.data, s)
}

// BadCandidate runs the cascade's per-candidate distance under the
// write lock.
func (ix *index) BadCandidate(ctx context.Context, q, fq []float64, budget float64) float64 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.engine.DistanceUnderFeatures(ctx, q, fq, ix.data[0], nil, budget) // want `core.DistanceUnderFeatures .* exclusively locked`
}

// StagedAdd extracts before it locks and only appends under the lock:
// stage, then publish.
func (ix *index) StagedAdd(s []float64) {
	f := ix.engine.Extract(s)
	ix.mu.Lock()
	ix.data = append(ix.data, s, f)
	ix.mu.Unlock()
}

// ReadCandidate runs the per-candidate distance under RLock, as a
// search does.
func (ix *index) ReadCandidate(ctx context.Context, q, fq []float64, budget float64) float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.engine.DistanceUnderFeatures(ctx, q, fq, ix.data[0], nil, budget)
}

// BadShardedSearch runs the multi-part cascade under the write lock,
// serializing every reader behind it.
func (ix *index) BadShardedSearch(ctx context.Context, parts []retrieve.Part) int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return retrieve.SearchParts(ctx, parts) // want `retrieve.SearchParts .* exclusively locked`
}
