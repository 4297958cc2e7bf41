package sdtw

import (
	"errors"

	"sdtw/internal/hub"
	"sdtw/internal/retrieve"
	"sdtw/internal/store"
)

// Sentinel errors of the query surface. Every validation failure across
// NewIndex, NewWindowedIndex, Search, NewMonitor, Push, Add, Remove and
// the one-shot helpers wraps one of these, so callers branch
// with errors.Is instead of matching message strings:
//
//	if _, _, err := ix.Search(ctx, q, sdtw.WithK(k)); errors.Is(err, sdtw.ErrBadK) { ... }
var (
	// ErrEmptyCollection reports an attempt to index or batch over zero
	// series — or to Remove an index's last series.
	ErrEmptyCollection = retrieve.ErrEmptyCollection
	// ErrEmptySeries reports a series or query with no observations.
	ErrEmptySeries = retrieve.ErrEmptySeries
	// ErrBadK reports a non-positive neighbour count.
	ErrBadK = retrieve.ErrBadK
	// ErrLengthMismatch reports a series or query whose length violates
	// the windowed backend's equal-length requirement.
	ErrLengthMismatch = retrieve.ErrLengthMismatch
	// ErrConfigMismatch reports a segment store whose kind or
	// configuration fingerprint does not match the constructor and options
	// it is being opened under, or options that name no configuration at
	// all (a Strategy outside the declared constants).
	ErrConfigMismatch = retrieve.ErrConfigMismatch
	// ErrDuplicateID reports two collection series sharing one non-empty
	// ID (IDs key the feature cache and Remove).
	ErrDuplicateID = retrieve.ErrDuplicateID
	// ErrUnknownID reports a Remove of an ID not in the collection.
	ErrUnknownID = retrieve.ErrUnknownID
	// ErrMonitorClosed reports a Push, PushBatch or Flush on a Monitor
	// that was already flushed — or whose state was abandoned after a
	// mid-batch cancellation.
	ErrMonitorClosed = errors.New("monitor closed")
	// ErrHubClosed reports an operation on a Hub already shut down by
	// Flush (or abandoned after a cancelled Run).
	ErrHubClosed = hub.ErrHubClosed
	// ErrUnknownStream reports a Hub push to (or close of) a stream ID
	// that was never added or was already closed.
	ErrUnknownStream = hub.ErrUnknownStream
	// ErrHubBackpressure reports a Hub push that would overflow the
	// stream's bounded pending buffer; the push consumes nothing and the
	// producer decides whether to retry, shed, or block.
	ErrHubBackpressure = hub.ErrHubBackpressure
	// ErrCorruptManifest reports a segment store whose manifest (or
	// tombstone log) cannot be parsed.
	ErrCorruptManifest = store.ErrCorruptManifest
	// ErrCorruptSegment reports a segment file failing its checksum,
	// header, or framing checks.
	ErrCorruptSegment = store.ErrCorruptSegment
	// ErrTornTail reports a partially written (torn) tail on an
	// append-only store file — the residue of a crash mid-write. Opens
	// repair it by truncating back to the last intact record; Verify
	// reports it without touching anything.
	ErrTornTail = store.ErrTornTail
	// ErrQuarantined reports a store carrying quarantined segments:
	// opening one requires AllowQuarantine (the caller must opt into
	// degraded serving), and Compact refuses until the quarantine is
	// resolved.
	ErrQuarantined = store.ErrQuarantined
	// ErrStoreExists reports a SaveStore into a directory that already
	// holds a segment store.
	ErrStoreExists = store.ErrStoreExists
	// ErrNotStoreBacked reports Compact, StoreStats or CloseStore on an
	// index that was not opened from a segment store.
	ErrNotStoreBacked = errors.New("index is not store-backed")
	// ErrStoreBacked reports a SaveStore of a store-backed index, whose
	// raw values already live in its segment store (keep serving from
	// that store, or rebuild an in-RAM index from the data).
	ErrStoreBacked = errors.New("index is store-backed")
)
