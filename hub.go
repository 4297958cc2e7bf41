package sdtw

import (
	"context"
	"fmt"
	"math"

	"sdtw/internal/hub"
)

// StreamMatch is one confirmed subsequence occurrence on one hub stream:
// the query pattern QueryID matched the region [Start, End] (inclusive
// absolute stream positions) of stream StreamID at distance Distance.
type StreamMatch = hub.Match

// HubStats is a snapshot of a Hub's accounting: live registry sizes,
// points accepted/processed/rejected, SPRING column advances run and
// skipped by the time-domain prefilter, and matches delivered, with a
// per-query breakdown.
type HubStats = hub.Stats

// HubQueryStats is the per-query slice of HubStats.
type HubQueryStats = hub.QueryStats

// hubConfig is the resolved form of a HubOption list.
type hubConfig struct {
	streamBuffer int
	matchBuffer  int
	workers      int
}

// HubOption configures a NewHub call, mirroring the MonitorOption idiom
// of the single-stream surface.
type HubOption func(*hubConfig)

// WithStreamBuffer sets the per-stream pending-point capacity: a
// PushBatch that would exceed it reports ErrHubBackpressure and consumes
// nothing. The buffers grow on demand up to it, so a stream holds memory
// for the points it actually has pending. n <= 0 keeps the default (4096
// points).
func WithStreamBuffer(n int) HubOption {
	return func(c *hubConfig) { c.streamBuffer = n }
}

// WithMatchBuffer sets the Matches channel capacity. A slow consumer
// eventually stalls processing and surfaces as ErrHubBackpressure at the
// producers. n <= 0 keeps the default (1024 matches).
func WithMatchBuffer(n int) HubOption {
	return func(c *hubConfig) { c.matchBuffer = n }
}

// WithHubWorkers sets how many processing goroutines Run starts. n <= 0
// means GOMAXPROCS.
func WithHubWorkers(n int) HubOption {
	return func(c *hubConfig) { c.workers = n }
}

// Hub is the fleet-scale streaming surface: many independent streams
// matched against a shared set of standing queries in one process, with
// per-stream×query SPRING state pooled in slab arenas, a time-domain
// prefilter that skips the per-point recurrence for stream values
// provably outside every emittable match, and bounded, backpressured
// batch ingestion.
//
// Use a Monitor for one stream whose matches you want returned from the
// Push call itself; use a Hub when there are many streams, when queries
// come and go at runtime, or when producers must never block on
// processing (a full pending buffer is an explicit ErrHubBackpressure,
// not a stall). See the README's Fleet streaming section for the full
// decision table and the backpressure contract.
//
// Lifecycle: add queries and streams (in any order, at any time), start
// Run(ctx) on a goroutine, push points from any number of goroutines,
// and consume Matches() promptly. CloseStream drains a single stream and
// recycles its state; Flush drains everything and closes Matches.
type Hub struct {
	h *hub.Hub
}

// NewHub builds an empty fleet hub. Every query advances with the
// squared-difference cost behind the time-domain prefilter.
//
// The Options parameter is ignored — no field of it applies to the hub:
// band options do not apply to open-begin subsequence alignment, and
// WithHubWorkers sets the workers — and goes with the benchmark edit of
// ROADMAP item 2c: the nested benchmark module calls NewHub with
// Options{}.
func NewHub(_ Options, hopts ...HubOption) *Hub {
	var cfg hubConfig
	for _, o := range hopts {
		o(&cfg)
	}
	return &Hub{h: hub.New(hub.Config{
		StreamBuffer: cfg.streamBuffer,
		MatchBuffer:  cfg.matchBuffer,
		Workers:      cfg.workers,
	})}
}

// AddQuery registers a standing query under id. The query must be
// non-empty and finite (a NaN or ±Inf value is refused with
// ErrNonFinite). The hub only streams thresholded emissions, so
// WithMatchThreshold is required (WithBestOnly does not apply);
// WithMinGap is honoured per stream. Existing streams
// pick the query up at their next processed point, and its matches carry
// absolute stream positions.
func (h *Hub) AddQuery(id string, query Series, mopts ...MonitorOption) error {
	cfg := monitorConfig{threshold: math.Inf(1)}
	for _, o := range mopts {
		o(&cfg)
	}
	if !cfg.thresholdSet || cfg.bestOnly {
		return fmt.Errorf("sdtw: Hub.AddQuery %q: a hub query needs WithMatchThreshold (best-only tracking has no streaming emission)", id)
	}
	if cfg.minGap < 0 {
		return fmt.Errorf("sdtw: Hub.AddQuery %q: negative WithMinGap %d", id, cfg.minGap)
	}
	return h.h.AddQuery(hub.Query{
		ID:        id,
		Values:    query.Values,
		Threshold: cfg.threshold,
		MinGap:    cfg.minGap,
	})
}

// RemoveQuery unregisters a standing query. Matches already confirmed
// may still be delivered; each stream recycles the query's state as it
// observes the removal.
func (h *Hub) RemoveQuery(id string) error { return h.h.RemoveQuery(id) }

// AddStream registers a stream and pre-warms its per-query SPRING state
// from the arenas, so pushing to it allocates nothing.
func (h *Hub) AddStream(id string) error { return h.h.AddStream(id) }

// CloseStream unregisters a stream: its buffered points are processed,
// its pending matches are confirmed and delivered, and its per-query
// state is recycled. With Run active the drain is asynchronous; without
// it the caller drains inline.
func (h *Hub) CloseStream(id string) error { return h.h.CloseStream(id) }

// Push ingests one point on one stream; see PushBatch.
//
//sdtw:hotpath
func (h *Hub) Push(streamID string, v float64) error { return h.h.Push(streamID, v) }

// PushBatch ingests a batch of points on one stream. It never blocks on
// processing: points land in the stream's bounded pending buffer and a
// full buffer reports ErrHubBackpressure, consuming nothing. Points are
// processed strictly in push order per stream; different streams may be
// pushed concurrently.
//
//sdtw:hotpath
func (h *Hub) PushBatch(streamID string, values []float64) error {
	return h.h.PushBatch(streamID, values)
}

// Matches is the delivery channel: every confirmed match is sent here,
// per stream in emission order (end position, then query addition
// order). Consume it promptly — when it fills, processing stalls and
// producers see ErrHubBackpressure. Flush closes it.
func (h *Hub) Matches() <-chan StreamMatch { return h.h.Matches() }

// Run processes scheduled streams on the hub's worker pool until ctx is
// cancelled (returning ctx.Err() and closing the hub) or Flush drains it
// (returning nil). A nil ctx never cancels. Call it once, on its own
// goroutine. Without Run, pushes buffer and CloseStream/Flush drain on
// the caller — the synchronous mode the tests and examples use.
func (h *Hub) Run(ctx context.Context) error { return h.h.Run(ctx) }

// Flush shuts the hub down: every stream's buffered points are
// processed, every pending match is confirmed and delivered, state is
// recycled, Matches is closed and an active Run returns nil. A
// cancelled ctx abandons the drain (Matches stays open, the hub stays
// closed) and returns ctx.Err(). Flushing twice reports ErrHubClosed.
func (h *Hub) Flush(ctx context.Context) error { return h.h.Flush(ctx) }

// Stats returns a snapshot of the hub's accounting. Safe to call
// concurrently with everything.
func (h *Hub) Stats() HubStats { return h.h.Stats() }
