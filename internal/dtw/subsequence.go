package dtw

import (
	"fmt"

	"sdtw/internal/series"
)

// SubsequenceMatch locates the best-matching contiguous region of a long
// series for a query under DTW.
type SubsequenceMatch struct {
	// Start and End delimit the matched region of the long series,
	// inclusive.
	Start, End int
	// Distance is the DTW distance between the query and the region.
	Distance float64
}

// Subsequence finds the subsequence of s whose DTW distance to the query
// q is minimal (open-begin, open-end alignment): the warp path must
// consume all of q but may start and end anywhere on s. This is the
// classical subsequence DTW used for query-by-content over long streams —
// the retrieval setting the paper's introduction motivates.
//
// The dynamic program runs in O(|q|·|s|) time and O(|s|) space, tracking
// for every cell the position on s where its path entered row 0 so the
// match's start point is recovered without storing the full grid. For the
// incremental, point-at-a-time formulation of the same recurrence see
// Spring.
func Subsequence(q, s []float64) (SubsequenceMatch, error) {
	return SubsequenceWS(q, s, nil)
}

// SubsequenceWS is Subsequence with an optional caller-provided workspace
// for allocation-free repeated computation.
func SubsequenceWS(q, s []float64, ws *Workspace) (SubsequenceMatch, error) {
	if len(q) == 0 || len(s) == 0 {
		return SubsequenceMatch{}, fmt.Errorf("dtw: empty input (len(q)=%d len(s)=%d): %w", len(q), len(s), series.ErrEmptySeries)
	}
	if ws == nil {
		ws = &Workspace{}
	}
	return subsequenceSquared(q, s, ws), nil
}
