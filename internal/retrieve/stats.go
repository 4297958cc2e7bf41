package retrieve

import (
	"fmt"
	"time"
)

// Stats accounts for the work one search (or a batch of searches) did
// and, more importantly, avoided: how far each candidate got through the
// lower-bound cascade, how many DTW grid cells were filled, and where the
// time went. It is the superset of the per-backend stats the pre-unified
// indexes reported and is shared by every index, so dashboards compare
// sDTW and windowed retrieval on the same axes.
type Stats struct {
	// Candidates is the collection size examined (after self-exclusion).
	Candidates int
	// PrunedSketch counts candidates discarded by the stage-0 LB_PAA
	// sketch bound — before LB_Kim, without touching the candidate's raw
	// values or its full envelope.
	PrunedSketch int
	// PrunedKim and PrunedKeogh count candidates discarded by each bound
	// before any DTW grid work.
	PrunedKim, PrunedKeogh int
	// Evaluated counts candidates that required a DTW computation
	// (including ones abandoned partway through).
	Evaluated int
	// AbandonedDTW counts evaluated candidates whose DTW computation came
	// back abandoned: their distance exceeds the best-so-far threshold they
	// were computed under, whether the dynamic program stopped at a row
	// with no cell within it or ran every row and ended over it. Abandoned
	// candidates are included in Evaluated and never contend for the heap.
	AbandonedDTW int
	// CellsSaved counts the band cells left unfilled on abandoned
	// candidates. Cells pruned from candidates that completed are not in
	// it; they show in Cells and CellsGain.
	CellsSaved int
	// Cells is the number of DTW grid cells actually filled.
	Cells int
	// GridCells is the total N·M over every candidate — the grids a
	// brute-force scan would confront — so CellsGain reflects the combined
	// effect of the cascade and the band.
	GridCells int
	// BoundTime is the time spent computing LB_Kim and LB_Keogh bounds.
	BoundTime time.Duration
	// ExtractTime is the time spent preparing the query — under an
	// aligning band its one feature extraction per search (none when the
	// query is an indexed series, values and all, whose features the index
	// holds); zero under a fixed band, windowed indexes included.
	ExtractTime time.Duration
	// MatchTime and DPTime are the summed backend stage durations of the
	// evaluated candidates (the paper's tasks b and c).
	MatchTime, DPTime time.Duration
	// WallTime is the elapsed time of the whole search.
	WallTime time.Duration
}

// PruneRate is the fraction of candidates discarded without DTW work.
func (s Stats) PruneRate() float64 {
	if s.Candidates == 0 {
		return 0
	}
	return float64(s.PrunedSketch+s.PrunedKim+s.PrunedKeogh) / float64(s.Candidates)
}

// AbandonRate is the fraction of evaluated candidates whose DTW
// computation was abandoned before filling the whole band.
func (s Stats) AbandonRate() float64 {
	if s.Evaluated == 0 {
		return 0
	}
	return float64(s.AbandonedDTW) / float64(s.Evaluated)
}

// CellsGain is the machine-independent pruning gain 1 − Cells/GridCells.
func (s Stats) CellsGain() float64 {
	if s.GridCells == 0 {
		return 0
	}
	return 1 - float64(s.Cells)/float64(s.GridCells)
}

// Merge folds another stats record into s (batch aggregation). WallTime
// is deliberately not summed: batches report their own elapsed time.
func (s *Stats) Merge(o Stats) {
	s.Candidates += o.Candidates
	s.PrunedSketch += o.PrunedSketch
	s.PrunedKim += o.PrunedKim
	s.PrunedKeogh += o.PrunedKeogh
	s.Evaluated += o.Evaluated
	s.AbandonedDTW += o.AbandonedDTW
	s.CellsSaved += o.CellsSaved
	s.Cells += o.Cells
	s.GridCells += o.GridCells
	s.BoundTime += o.BoundTime
	s.ExtractTime += o.ExtractTime
	s.MatchTime += o.MatchTime
	s.DPTime += o.DPTime
}

// String implements fmt.Stringer for terse logs.
func (s Stats) String() string {
	return fmt.Sprintf("candidates=%d sketch=%d kim=%d keogh=%d evaluated=%d abandoned=%d prune=%.2f cellsgain=%.2f cellssaved=%d",
		s.Candidates, s.PrunedSketch, s.PrunedKim, s.PrunedKeogh, s.Evaluated, s.AbandonedDTW, s.PruneRate(), s.CellsGain(), s.CellsSaved)
}
