package retrieve

import (
	"errors"

	"sdtw/internal/series"
)

// Sentinel errors of the retrieval surface. The public sdtw package
// re-exports them; every validation failure across the query surface
// wraps one of these so callers can branch with errors.Is instead of
// matching message strings. ErrEmptySeries and ErrLengthMismatch are the
// shared identities from internal/series, so the dynamic-programming
// kernels report the very same sentinels; so is ErrNonFinite, which
// series.Series.Validate wraps too.
var (
	// ErrEmptyCollection reports an attempt to build an index (or run a
	// batch) over zero series or zero queries.
	ErrEmptyCollection = errors.New("empty collection")
	// ErrEmptySeries reports a series or query with no observations.
	ErrEmptySeries = series.ErrEmptySeries
	// ErrBadK reports a non-positive neighbour count.
	ErrBadK = errors.New("k must be >= 1")
	// ErrLengthMismatch reports a series whose length violates a
	// backend's equal-length requirement.
	ErrLengthMismatch = series.ErrLengthMismatch
	// ErrNonFinite reports a series or query holding a NaN or ±Inf value.
	// Every entry point refuses one — collection series at admission,
	// queries at Prepare — since no distance or bound over it means
	// anything.
	ErrNonFinite = series.ErrNonFinite
	// ErrConfigMismatch reports an index snapshot whose configuration
	// fingerprint does not match the options it is being loaded under.
	ErrConfigMismatch = errors.New("index config mismatch")
	// ErrDuplicateID reports two collection series sharing one non-empty
	// ID (IDs key Remove).
	ErrDuplicateID = errors.New("duplicate series ID")
	// ErrUnknownID reports a Remove of an ID not in the collection.
	ErrUnknownID = errors.New("unknown series ID")
	// ErrNoID reports an empty series ID where one is needed: a Remove,
	// or a series added to a collection that routes or stores by ID.
	ErrNoID = errors.New("empty series ID")
)
