package a

import (
	"sync"

	"sdtw/internal/dtw"
)

type index struct {
	mu   sync.RWMutex
	data [][]float64
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
