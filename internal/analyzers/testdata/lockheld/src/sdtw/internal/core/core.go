package core

import "context"

// Engine stands in for the real distance engine.
type Engine struct{}

// Extract stands in for the per-series salient-feature extraction.
func (e *Engine) Extract(x []float64) []float64 { return x }

// DistanceUnderFeatures stands in for the banded DP over held features,
// the cascade's per-candidate distance call.
func (e *Engine) DistanceUnderFeatures(ctx context.Context, x, fx, y, fy []float64, budget float64) float64 {
	_, _, _, _, _ = ctx, x, fx, y, fy
	return budget
}
