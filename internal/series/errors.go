package series

import "errors"

// Sentinel errors shared by every layer that validates series inputs.
// They live in this package — the bottom of the dependency graph — so the
// dynamic-programming kernels (internal/dtw), the retrieval surface
// (internal/retrieve) and the public sdtw package can all wrap the same
// identities and callers can branch with errors.Is at any level.
var (
	// ErrEmptySeries reports a series, query or stream with no
	// observations.
	ErrEmptySeries = errors.New("empty series")
	// ErrLengthMismatch reports a series whose length violates an
	// equal-length requirement (a windowed backend's collection, or a
	// constraint band built for a different length).
	ErrLengthMismatch = errors.New("series length mismatch")
	// ErrNonFinite reports a series or query holding a NaN or ±Inf value:
	// DTW over it, and every bound of it, is meaningless.
	ErrNonFinite = errors.New("non-finite value")
)
