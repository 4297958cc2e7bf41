// Package eval implements the paper's evaluation harness (§4.2): top-k
// retrieval accuracy, distance-estimation error, kNN classification
// agreement, and time/cells gains, plus the concurrent pairwise distance
// machinery the experiments are built on.
package eval

import (
	"math"
	"sort"
)

// TopKOverlap returns |topRef ∩ topEst| / k for the first k entries of the
// two rankings, the accret(k) measure. Rankings shorter than k are an
// error at the call site; the function uses what it is given.
func TopKOverlap(topRef, topEst []int, k int) float64 {
	if k <= 0 {
		return 0
	}
	if k > len(topRef) {
		k = len(topRef)
	}
	ke := k
	if ke > len(topEst) {
		ke = len(topEst)
	}
	ref := make(map[int]bool, k)
	for _, id := range topRef[:k] {
		ref[id] = true
	}
	hits := 0
	for _, id := range topEst[:ke] {
		if ref[id] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// DistanceError returns the relative over-estimation (est − ref)/ref, the
// errdist contribution of one pair. Constrained DTW never underestimates,
// so the value is non-negative up to floating-point noise. A zero
// reference with a non-zero estimate yields +Inf; both zero yields 0.
func DistanceError(ref, est float64) float64 {
	if ref == 0 {
		if est == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (est - ref) / ref
}

// JaccardLabels returns |a ∩ b| / |a ∪ b| over two label sets, the
// acccls(k) contribution of one object. Two empty sets count as agreement.
func JaccardLabels(a, b map[int]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter, union := 0, 0
	for l := range a {
		if b[l] {
			inter++
		}
	}
	union = len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// TimeGain returns (ref − est)/ref: the fraction of the reference cost
// avoided. Non-positive references yield 0.
func TimeGain(ref, est float64) float64 {
	if ref <= 0 {
		return 0
	}
	return (ref - est) / ref
}

// Mean returns the arithmetic mean, ignoring NaN and Inf entries (which
// arise from zero-reference distance errors); it returns 0 for no finite
// entries.
func Mean(v []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		sum += x
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Ranking sorts object indices by ascending distance, breaking ties by
// index for determinism. dists[i] is the distance of object i to the
// query; entries set to NaN (e.g. the query itself) are excluded.
func Ranking(dists []float64) []int {
	idx := make([]int, 0, len(dists))
	for i, d := range dists {
		if math.IsNaN(d) {
			continue
		}
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool {
		da, db := dists[idx[a]], dists[idx[b]]
		if da != db {
			return da < db
		}
		return idx[a] < idx[b]
	})
	return idx
}

// KNNLabels returns the label set a k-nearest-neighbour classifier
// attaches to a query given the ranked neighbour indices and their labels:
// every label achieving the maximum count among the k nearest is included
// (§4.2: ties can attach more than one label).
func KNNLabels(ranked []int, labels []int, k int) map[int]bool {
	if k > len(ranked) {
		k = len(ranked)
	}
	counts := make(map[int]int)
	maxCount := 0
	for _, id := range ranked[:k] {
		l := labels[id]
		counts[l]++
		if counts[l] > maxCount {
			maxCount = counts[l]
		}
	}
	out := make(map[int]bool)
	for l, c := range counts {
		if c == maxCount && maxCount > 0 {
			out[l] = true
		}
	}
	return out
}
