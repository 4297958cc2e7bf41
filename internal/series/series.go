// Package series provides the time-series substrate used throughout the
// sDTW library: the Series value type, the squared point cost,
// normalisation, resampling, and synthetic time-warping utilities.
//
// All algorithms in this repository operate on plain []float64 values; the
// Series type adds the identity and label metadata needed by the retrieval
// and classification harnesses.
package series

import (
	"fmt"
	"math"
)

// Series is a univariate time series with optional identity metadata.
// The zero value is an empty, unlabeled series.
type Series struct {
	// ID identifies the series within a data set. It is used as a cache
	// key by the sDTW engine when non-empty.
	ID string
	// Label is the class label used by classification experiments.
	// Negative means unlabeled.
	Label int
	// Values holds the observations in temporal order.
	Values []float64
}

// New returns a labeled series wrapping values. The slice is not copied.
func New(id string, label int, values []float64) Series {
	return Series{ID: id, Label: label, Values: values}
}

// Len returns the number of observations.
func (s Series) Len() int { return len(s.Values) }

// Clone returns a deep copy of the series.
func (s Series) Clone() Series {
	v := make([]float64, len(s.Values))
	copy(v, s.Values)
	return Series{ID: s.ID, Label: s.Label, Values: v}
}

// String implements fmt.Stringer with a compact summary.
func (s Series) String() string {
	return fmt.Sprintf("Series(id=%q label=%d len=%d)", s.ID, s.Label, len(s.Values))
}

// Validate reports an error if the series contains NaN or Inf values or is
// empty. DTW over non-finite values produces meaningless distances, so
// ingestion points should validate first.
func (s Series) Validate() error {
	if len(s.Values) == 0 {
		return fmt.Errorf("series: %w", ErrEmptySeries)
	}
	for i, v := range s.Values {
		if math.IsNaN(v) {
			return fmt.Errorf("series: NaN at index %d", i)
		}
		if math.IsInf(v, 0) {
			return fmt.Errorf("series: Inf at index %d", i)
		}
	}
	return nil
}

// PointDistance measures the cost of aligning two scalar observations.
// DTW accumulates these costs along the warp path. The repository computes
// one cost, SquaredDistance; the type survives as the ignored parameter of
// the dtw and lower functions the nested benchmark module names, and goes
// with the benchmark edit of ROADMAP item 2c.
type PointDistance func(a, b float64) float64

// SquaredDistance is the conventional UCR point cost (a-b)^2, the one
// every distance and bound in the repository computes.
func SquaredDistance(a, b float64) float64 { d := a - b; return d * d }

// Mean returns the arithmetic mean of v. It returns 0 for empty input.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// Std returns the population standard deviation of v.
func Std(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := Mean(v)
	ss := 0.0
	for _, x := range v {
		d := x - m
		ss += float64(d * d)
	}
	return math.Sqrt(ss / float64(len(v)))
}

// MinMax returns the minimum and maximum of v. It returns (0,0) for empty
// input.
func MinMax(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		return 0, 0
	}
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// ZNormalize returns a copy of v shifted to zero mean and scaled to unit
// standard deviation. Constant series are returned as all zeros.
func ZNormalize(v []float64) []float64 {
	out := make([]float64, len(v))
	m, s := Mean(v), Std(v)
	if s == 0 {
		return out
	}
	for i, x := range v {
		out[i] = (x - m) / s
	}
	return out
}

// Normalize01 returns a copy of v linearly rescaled into [0,1]. Constant
// series map to all zeros.
func Normalize01(v []float64) []float64 {
	out := make([]float64, len(v))
	lo, hi := MinMax(v)
	if hi == lo {
		return out
	}
	for i, x := range v {
		out[i] = (x - lo) / (hi - lo)
	}
	return out
}
