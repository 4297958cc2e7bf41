// Package hub multiplexes many independent streams over a shared set of
// standing subsequence queries — the fleet-scale form of the one-stream
// Monitor. Production monitoring runs thousands of sensor or audio
// streams against hundreds of patterns in one process; what that costs
// is per-stream×query SPRING state (O(|q|) each) and the O(Σ|q|) column
// advances per point. The hub attacks both: state is slab-allocated from
// per-query arenas and recycled on stream close, and the time-domain
// prefilter (dtw.SpringConfig.Prefilter) skips the column advance
// entirely for stream points provably outside every emittable match.
//
// Concurrency model:
//
//   - the registry (streams map, query list) lives in a copy-on-write
//     snapshot behind an atomic pointer: ingest reads it lock-free, so
//     Push never blocks behind AddStream/AddQuery/CloseStream admin;
//   - each stream is a tiny actor: PushBatch appends points into the
//     stream's bounded pending buffer (full buffer → ErrHubBackpressure,
//     explicitly, never a hidden stall) and schedules the stream on the
//     hub's ready queue exactly once; Run's workers dequeue a stream,
//     steal its pending buffer, and advance its query states with no
//     lock held — ordering and exclusivity come from the scheduled bit;
//   - confirmed matches are delivered on the Matches channel; a slow
//     consumer backs the workers up, the pending buffers fill, and the
//     producers see ErrHubBackpressure — one coherent backpressure path
//     from output to input.
package hub

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"sdtw/internal/dtw"
	"sdtw/internal/retrieve"
)

// Sentinel errors of the fleet surface.
var (
	// ErrHubClosed reports an operation on a hub already shut down by
	// Flush (or abandoned after a cancelled Run).
	ErrHubClosed = errors.New("hub: closed")
	// ErrUnknownStream reports a push to (or close of) a stream ID that
	// was never added or was already closed.
	ErrUnknownStream = errors.New("hub: unknown stream")
	// ErrHubBackpressure reports a push that would overflow the stream's
	// bounded pending buffer: the hub is processing slower than the
	// producer sends (often because the Matches consumer stalled). The
	// producer decides — retry, shed, or block on its own terms.
	ErrHubBackpressure = errors.New("hub: stream buffer full")
)

// Match is one confirmed subsequence occurrence on one stream.
type Match struct {
	// Stream is the stream's ID.
	Stream string
	// Query is the matched standing query's ID.
	Query string
	// Start and End delimit the matched region, inclusive, in absolute
	// stream positions (counted from the stream's first pushed point).
	Start, End int
	// Distance is the subsequence DTW distance between query and region.
	Distance float64
}

// Query is one standing pattern the hub watches every stream for.
type Query struct {
	// ID labels emitted matches and keys RemoveQuery; required, unique.
	ID string
	// Values is the pattern; must be non-empty.
	Values []float64
	// Threshold is the emission threshold: regions at distance <=
	// Threshold are reported once confirmed. Must be finite and >= 0.
	Threshold float64
	// MinGap is the minimum number of stream points between an emitted
	// match's end and the next match's start on the same stream.
	MinGap int
}

// QueryStats is the per-query slice of Stats.
type QueryStats struct {
	// ID is the query's ID.
	ID string
	// Matches is the number of matches emitted for this query.
	Matches int64
	// Appends is the number of SPRING column advances run for this query
	// across all streams.
	Appends int64
	// Skipped is the number of column advances the time-domain prefilter
	// elided for this query across all streams.
	Skipped int64
}

// Stats is a snapshot of the hub's accounting.
type Stats struct {
	// Streams and Queries are the live registry sizes.
	Streams, Queries int
	// Points is the number of stream points accepted by Push/PushBatch.
	Points int64
	// Processed is the number of accepted points fully advanced through
	// every query state.
	Processed int64
	// Appends is the total SPRING column advances run (one per processed
	// point per query, minus Skipped).
	Appends int64
	// Skipped is the total column advances elided by the prefilter.
	Skipped int64
	// Matches is the number of matches delivered.
	Matches int64
	// Rejected is the number of points refused with ErrHubBackpressure.
	Rejected int64
	// PerQuery breaks matches, appends and skips down by query.
	PerQuery []QueryStats
}

// Config parameterises a Hub. The zero value selects the defaults.
type Config struct {
	// StreamBuffer is the per-stream pending-point capacity before
	// PushBatch reports ErrHubBackpressure. Zero means 4096.
	StreamBuffer int
	// MatchBuffer is the Matches channel capacity. Zero means 1024.
	MatchBuffer int
	// Workers is the number of processing goroutines Run starts. Zero
	// means GOMAXPROCS.
	Workers int
}

const (
	defaultStreamBuffer = 4096
	defaultMatchBuffer  = 1024
	// slabStates is how many per-stream states one arena slab holds.
	slabStates = 64
)

// query is one standing query's shared, stream-independent state.
type query struct {
	id  string
	seq int // addition order; ties in emission sorting follow it
	tpl *dtw.SpringTemplate

	// arena recycles per-stream SPRING state for this query.
	arena arena

	matches atomic.Int64
	appends atomic.Int64
	skipped atomic.Int64
}

// arena slab-allocates SPRING state: one backing array per slab instead
// of two small allocations per stream×query, with a free list recycling
// state from closed streams.
type arena struct {
	mu   sync.Mutex
	free []*dtw.Spring
}

// get hands out a freshly initialised state, growing by one slab when
// the free list is empty.
func (q *query) get() *dtw.Spring {
	q.arena.mu.Lock()
	if len(q.arena.free) == 0 {
		n := q.tpl.StateLen()
		d := make([]float64, n*slabStates)
		s := make([]int, n*slabStates)
		springs := make([]dtw.Spring, slabStates)
		for i := range springs {
			q.tpl.Init(&springs[i], d[i*n:(i+1)*n], s[i*n:(i+1)*n])
			q.arena.free = append(q.arena.free, &springs[i])
		}
	}
	sp := q.arena.free[len(q.arena.free)-1]
	q.arena.free = q.arena.free[:len(q.arena.free)-1]
	q.arena.mu.Unlock()
	sp.Reset()
	return sp
}

// put recycles a state back onto the free list.
func (q *query) put(sp *dtw.Spring) {
	q.arena.mu.Lock()
	q.arena.free = append(q.arena.free, sp)
	q.arena.mu.Unlock()
}

// qslot binds one stream to one query's state.
type qslot struct {
	q  *query
	sp *dtw.Spring
	// base is the stream position the state was attached at: a query
	// added mid-stream matches from its addition point, and emitted
	// Start/End are offset back to absolute stream positions.
	base int
}

// stream is one ingest actor.
type stream struct {
	id string

	mu        sync.Mutex // guards buf, scheduled, closing, finalized
	buf       []float64  // pending points, capacity = Config.StreamBuffer
	proc      []float64  // worker-side buffer, swapped with buf on steal
	scheduled bool
	closing   bool
	finalized bool

	// Owner-only state: touched by the scheduled worker (or by admin
	// paths holding the hub closed), never concurrently.
	version uint64
	states  []qslot
	emit    []Match
	pos     int // absolute stream position = points fully processed

	processed atomic.Int64
}

// state is the COW registry snapshot.
type state struct {
	version uint64
	streams map[string]*stream
	queries []*query
}

// Hub is the multi-stream engine. See the package comment for the
// concurrency model.
type Hub struct {
	cfg Config

	state atomic.Pointer[state]

	// admin serialises registry mutation (AddStream, CloseStream,
	// AddQuery, RemoveQuery, Flush). Ingest and processing never take it.
	admin   sync.Mutex
	qseq    int
	closed  atomic.Bool
	flushed bool

	readyMu sync.Mutex
	ready   []*stream
	head    int
	wake    chan struct{}

	out chan Match

	running atomic.Bool
	// runExit is closed to stop Run's workers (by Flush once drained, or
	// by Run itself on cancellation).
	runExit chan struct{}
	runEnd  sync.Once

	// live counts added-but-not-finalized streams; when it reaches zero
	// on a flushed hub, drained is closed and Flush completes.
	live        atomic.Int64
	drained     chan struct{}
	drainedOnce sync.Once

	points    atomic.Int64
	processed atomic.Int64
	matches   atomic.Int64
	rejected  atomic.Int64
}

// New builds an empty hub.
func New(cfg Config) *Hub {
	if cfg.StreamBuffer <= 0 {
		cfg.StreamBuffer = defaultStreamBuffer
	}
	if cfg.MatchBuffer <= 0 {
		cfg.MatchBuffer = defaultMatchBuffer
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	h := &Hub{
		cfg:     cfg,
		wake:    make(chan struct{}, 1),
		out:     make(chan Match, cfg.MatchBuffer),
		runExit: make(chan struct{}),
		drained: make(chan struct{}),
	}
	h.state.Store(&state{streams: map[string]*stream{}})
	return h
}

// Matches is the delivery channel: every confirmed match is sent here.
// Consume it promptly — when it fills, processing stalls and producers
// see ErrHubBackpressure. The channel is closed by Flush after the last
// match of the last stream.
func (h *Hub) Matches() <-chan Match { return h.out }

// AddQuery registers a standing query. Existing streams pick it up at
// their next processed point; its matches carry absolute stream
// positions but regions never start before the addition point.
func (h *Hub) AddQuery(q Query) error {
	if q.ID == "" {
		return fmt.Errorf("hub: AddQuery: empty query ID: %w", retrieve.ErrUnknownID)
	}
	if math.IsNaN(q.Threshold) || math.IsInf(q.Threshold, 0) || q.Threshold < 0 {
		return fmt.Errorf("hub: AddQuery %q: threshold must be finite and non-negative, got %v", q.ID, q.Threshold)
	}
	tpl, err := dtw.NewSpringTemplate(q.Values, dtw.SpringConfig{
		Threshold: q.Threshold,
		MinGap:    q.MinGap,
		Prefilter: true,
	})
	if err != nil {
		return fmt.Errorf("hub: AddQuery %q: %w", q.ID, err)
	}
	h.admin.Lock()
	defer h.admin.Unlock()
	if h.flushed {
		return fmt.Errorf("hub: AddQuery %q: %w", q.ID, ErrHubClosed)
	}
	old := h.state.Load()
	for _, prev := range old.queries {
		if prev.id == q.ID {
			return fmt.Errorf("hub: AddQuery: query %q already registered: %w", q.ID, retrieve.ErrDuplicateID)
		}
	}
	h.qseq++
	next := &state{
		version: old.version + 1,
		streams: old.streams,
		queries: append(append(make([]*query, 0, len(old.queries)+1), old.queries...),
			&query{id: q.ID, seq: h.qseq, tpl: tpl}),
	}
	h.state.Store(next)
	return nil
}

// RemoveQuery unregisters a standing query. In-flight matches already
// confirmed may still be delivered; per-stream state is recycled as each
// stream observes the new snapshot.
func (h *Hub) RemoveQuery(id string) error {
	h.admin.Lock()
	defer h.admin.Unlock()
	if h.flushed {
		return fmt.Errorf("hub: RemoveQuery %q: %w", id, ErrHubClosed)
	}
	old := h.state.Load()
	at := -1
	for i, q := range old.queries {
		if q.id == id {
			at = i
			break
		}
	}
	if at < 0 {
		return fmt.Errorf("hub: RemoveQuery: no query %q: %w", id, retrieve.ErrUnknownID)
	}
	queries := make([]*query, 0, len(old.queries)-1)
	queries = append(queries, old.queries[:at]...)
	queries = append(queries, old.queries[at+1:]...)
	h.state.Store(&state{version: old.version + 1, streams: old.streams, queries: queries})
	return nil
}

// AddStream registers a stream and pre-warms its per-query state from
// the arenas, so the first pushed point allocates nothing.
func (h *Hub) AddStream(id string) error {
	if id == "" {
		return fmt.Errorf("hub: AddStream: empty stream ID: %w", retrieve.ErrDuplicateID)
	}
	h.admin.Lock()
	defer h.admin.Unlock()
	if h.flushed {
		return fmt.Errorf("hub: AddStream %q: %w", id, ErrHubClosed)
	}
	old := h.state.Load()
	if _, dup := old.streams[id]; dup {
		return fmt.Errorf("hub: AddStream: stream %q already registered: %w", id, retrieve.ErrDuplicateID)
	}
	st := &stream{
		id:   id,
		buf:  make([]float64, 0, h.cfg.StreamBuffer),
		proc: make([]float64, 0, h.cfg.StreamBuffer),
	}
	st.attach(old)
	streams := make(map[string]*stream, len(old.streams)+1)
	for k, v := range old.streams {
		streams[k] = v
	}
	streams[id] = st
	h.state.Store(&state{version: old.version, streams: streams, queries: old.queries})
	h.live.Add(1)
	return nil
}

// attach aligns st's query states to snapshot snap, acquiring state for
// new queries and recycling state of removed ones. Owner-only.
func (st *stream) attach(snap *state) {
	var old []qslot
	if st.version != snap.version || st.states == nil {
		old = st.states
		st.states = make([]qslot, 0, len(snap.queries))
		for _, q := range snap.queries {
			reused := false
			for i := range old {
				if old[i].q == q {
					st.states = append(st.states, old[i])
					old[i].q = nil
					reused = true
					break
				}
			}
			if !reused {
				st.states = append(st.states, qslot{q: q, sp: q.get(), base: st.pos})
			}
		}
		for i := range old {
			if old[i].q != nil {
				old[i].q.put(old[i].sp)
			}
		}
		st.version = snap.version
	}
}

// CloseStream unregisters a stream. Its buffered points are still
// processed, its pending matches are confirmed (the end-of-stream flush,
// delivered on Matches), and its per-query state is recycled into the
// arenas. With Run active the drain is asynchronous; without it the
// stream is drained inline.
func (h *Hub) CloseStream(id string) error {
	h.admin.Lock()
	if h.flushed {
		h.admin.Unlock()
		return fmt.Errorf("hub: CloseStream %q: %w", id, ErrHubClosed)
	}
	old := h.state.Load()
	st, ok := old.streams[id]
	if !ok {
		h.admin.Unlock()
		return fmt.Errorf("hub: CloseStream: no stream %q: %w", id, ErrUnknownStream)
	}
	streams := make(map[string]*stream, len(old.streams)-1)
	for k, v := range old.streams {
		if k != id {
			streams[k] = v
		}
	}
	h.state.Store(&state{version: old.version, streams: streams, queries: old.queries})
	running := h.running.Load()
	h.admin.Unlock()

	st.mu.Lock()
	st.closing = true
	enqueue := !st.scheduled
	if enqueue {
		st.scheduled = true
	}
	st.mu.Unlock()
	if enqueue {
		h.enqueue(st)
	}
	if !running {
		// No workers: drain the ready queue on the caller. This services
		// the closed stream (finalizing it and recycling its state) plus
		// whatever else was pending — ownership still comes from dequeue,
		// so a concurrently starting Run stays safe.
		for next := h.dequeue(); next != nil; next = h.dequeue() {
			h.service(nil, next)
		}
	}
	return nil
}

// Push ingests one point on one stream; see PushBatch.
//
//sdtw:hotpath
func (h *Hub) Push(streamID string, v float64) error {
	var one [1]float64
	one[0] = v
	return h.PushBatch(streamID, one[:])
}

// PushBatch ingests a batch of points on one stream. It never blocks on
// processing: points land in the stream's bounded pending buffer and the
// stream is scheduled onto the hub's worker pool. A full buffer reports
// ErrHubBackpressure and consumes nothing — the producer chooses how to
// cope. Points are processed strictly in push order per stream.
//
//sdtw:hotpath
func (h *Hub) PushBatch(streamID string, values []float64) error {
	if len(values) == 0 {
		return nil
	}
	if h.closed.Load() {
		return h.errClosed()
	}
	st := h.state.Load().streams[streamID]
	if st == nil {
		return h.errUnknown(streamID)
	}
	st.mu.Lock()
	if st.closing {
		st.mu.Unlock()
		return h.errUnknown(streamID)
	}
	if len(st.buf)+len(values) > cap(st.buf) {
		pending := len(st.buf)
		st.mu.Unlock()
		h.rejected.Add(int64(len(values)))
		return h.errBackpressure(streamID, pending, len(values))
	}
	st.buf = append(st.buf, values...)
	enqueue := !st.scheduled
	if enqueue {
		st.scheduled = true
	}
	// Count accepted points before they become visible to a worker, so
	// Stats never observes Processed > Points.
	h.points.Add(int64(len(values)))
	st.mu.Unlock()
	if enqueue {
		h.enqueue(st)
	}
	return nil
}

// Cold error constructors, kept out of the push hot path.
func (h *Hub) errClosed() error { return fmt.Errorf("hub: push: %w", ErrHubClosed) }

func (h *Hub) errUnknown(id string) error {
	return fmt.Errorf("hub: push to %q: %w", id, ErrUnknownStream)
}

func (h *Hub) errBackpressure(id string, pending, batch int) error {
	return fmt.Errorf("hub: push of %d points to %q with %d pending: %w", batch, id, pending, ErrHubBackpressure)
}

// enqueue schedules a stream on the ready queue. Callers hold the
// stream's scheduled bit.
//
//sdtw:hotpath
func (h *Hub) enqueue(st *stream) {
	h.readyMu.Lock()
	h.ready = append(h.ready, st)
	h.readyMu.Unlock()
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// dequeue pops the next ready stream, compacting the backing in place so
// steady-state scheduling allocates nothing.
func (h *Hub) dequeue() *stream {
	h.readyMu.Lock()
	if h.head == len(h.ready) {
		h.readyMu.Unlock()
		return nil
	}
	st := h.ready[h.head]
	h.ready[h.head] = nil
	h.head++
	if h.head == len(h.ready) {
		h.ready = h.ready[:0]
		h.head = 0
	} else if h.head > 64 && h.head*2 >= len(h.ready) {
		n := copy(h.ready, h.ready[h.head:])
		h.ready = h.ready[:n]
		h.head = 0
	}
	more := h.head < len(h.ready)
	h.readyMu.Unlock()
	if more {
		// Other items remain: re-signal so a second idle worker engages.
		select {
		case h.wake <- struct{}{}:
		default:
		}
	}
	return st
}

// Run processes scheduled streams on cfg.Workers goroutines until ctx is
// cancelled (returning ctx.Err()) or Flush shuts the hub down (returning
// nil). A nil ctx never cancels. Run may be called once.
func (h *Hub) Run(ctx context.Context) error {
	if !h.running.CompareAndSwap(false, true) {
		return fmt.Errorf("hub: Run: already started or %w", ErrHubClosed)
	}
	defer h.runEnd.Do(func() { close(h.runExit) })
	var wg sync.WaitGroup
	done := ctxDone(ctx)
	for i := 0; i < h.cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				st := h.dequeue()
				if st == nil {
					select {
					case <-done:
						return
					case <-h.runExit:
						return
					case <-h.wake:
						continue
					}
				}
				h.service(ctx, st)
			}
		}()
	}
	// Wait for cancellation or Flush; then stop the workers.
	select {
	case <-done:
		h.closed.Store(true)
		h.runEnd.Do(func() { close(h.runExit) })
		wg.Wait()
		return ctxErr(ctx)
	case <-h.runExit:
		wg.Wait()
		return nil
	}
}

// ctxDone is ctx.Done() tolerating a nil context (a nil channel never
// delivers), mirroring the nil-tolerant context contract of the
// retrieval and streaming surfaces.
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// ctxErr is ctx.Err() tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// service owns st while its scheduled bit is set: it drains the pending
// buffer in stolen chunks, processing each with no lock held, and
// finalizes the stream once it is closing and empty.
func (h *Hub) service(ctx context.Context, st *stream) {
	for {
		st.mu.Lock()
		if len(st.buf) > 0 {
			st.buf, st.proc = st.proc[:0], st.buf
			st.mu.Unlock()
			h.process(ctx, st, st.proc)
			continue
		}
		if st.closing && !st.finalized {
			st.finalized = true
			st.scheduled = false
			st.mu.Unlock()
			h.finalize(ctx, st)
			return
		}
		st.scheduled = false
		st.mu.Unlock()
		return
	}
}

// process advances every query state of st over one stolen chunk and
// delivers the confirmed matches. Owner-only (see service).
//
//sdtw:hotpath
func (h *Hub) process(ctx context.Context, st *stream, chunk []float64) {
	snap := h.state.Load()
	if st.version != snap.version {
		st.attach(snap)
	}
	st.emit = st.emit[:0]
	for si := range st.states {
		slot := &st.states[si]
		sp := slot.sp
		appends0 := sp.Points() - int(sp.Skipped())
		skipped0 := sp.Skipped()
		emitted0 := len(st.emit)
		for _, v := range chunk {
			if m, ok := sp.AppendFiltered(v); ok {
				st.emit = append(st.emit, Match{
					Stream: st.id, Query: slot.q.id,
					Start: m.Start + slot.base, End: m.End + slot.base,
					Distance: m.Distance,
				})
			}
		}
		skipDelta := sp.Skipped() - skipped0
		slot.q.appends.Add(int64(sp.Points()-int(sp.Skipped())) - int64(appends0))
		slot.q.skipped.Add(skipDelta)
		if n := len(st.emit) - emitted0; n > 0 {
			slot.q.matches.Add(int64(n))
		}
	}
	st.pos += len(chunk)
	st.processed.Add(int64(len(chunk)))
	h.processed.Add(int64(len(chunk)))
	h.deliver(ctx, st)
}

// deliver sends the stream's buffered emissions in Monitor order (end
// position, then query addition order, then start). A cancelled ctx
// drops the remainder — the hub is shutting down.
func (h *Hub) deliver(ctx context.Context, st *stream) {
	if len(st.emit) == 0 {
		return
	}
	ms := st.emit
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].End != ms[j].End {
			return ms[i].End < ms[j].End
		}
		if ms[i].Query != ms[j].Query {
			return queryLess(st, ms[i].Query, ms[j].Query)
		}
		return ms[i].Start < ms[j].Start
	})
	done := ctxDone(ctx)
	for _, m := range ms {
		select {
		case h.out <- m:
			h.matches.Add(1)
		case <-done:
			return
		}
	}
}

// queryLess orders two query IDs by their addition sequence.
func queryLess(st *stream, a, b string) bool {
	sa, sb := 0, 0
	for i := range st.states {
		if st.states[i].q.id == a {
			sa = st.states[i].q.seq
		}
		if st.states[i].q.id == b {
			sb = st.states[i].q.seq
		}
	}
	return sa < sb
}

// finalize confirms st's pending matches (the end-of-stream flush),
// delivers them, and recycles its per-query state into the arenas.
func (h *Hub) finalize(ctx context.Context, st *stream) {
	st.emit = st.emit[:0]
	for si := range st.states {
		slot := &st.states[si]
		if m, ok := slot.sp.Flush(); ok {
			st.emit = append(st.emit, Match{
				Stream: st.id, Query: slot.q.id,
				Start: m.Start + slot.base, End: m.End + slot.base,
				Distance: m.Distance,
			})
			slot.q.matches.Add(1)
		}
	}
	h.deliver(ctx, st)
	for si := range st.states {
		st.states[si].q.put(st.states[si].sp)
	}
	st.states = nil
	h.live.Add(-1)
	h.maybeDrained()
}

// maybeDrained closes the drained channel once the hub is closed and the
// last stream has finalized.
func (h *Hub) maybeDrained() {
	if h.closed.Load() && h.live.Load() == 0 {
		h.drainedOnce.Do(func() { close(h.drained) })
	}
}

// Flush shuts the hub down: no further pushes or admin calls are
// accepted, every stream's buffered points are processed, every pending
// match is confirmed and delivered, stream state is recycled, the
// Matches channel is closed and an active Run returns nil. A cancelled
// ctx abandons the drain and returns ctx.Err(): undelivered matches are
// dropped, the Matches channel stays open, and the hub stays closed. A
// nil ctx never cancels. Flushing twice reports ErrHubClosed.
func (h *Hub) Flush(ctx context.Context) error {
	h.admin.Lock()
	if h.flushed {
		h.admin.Unlock()
		return fmt.Errorf("hub: Flush: %w", ErrHubClosed)
	}
	h.flushed = true
	h.closed.Store(true)
	snap := h.state.Load()
	h.state.Store(&state{version: snap.version, streams: map[string]*stream{}, queries: snap.queries})
	h.admin.Unlock()

	// Mark every stream closing and schedule any that are idle.
	for _, st := range snap.streams {
		st.mu.Lock()
		st.closing = true
		enqueue := !st.scheduled
		if enqueue {
			st.scheduled = true
		}
		st.mu.Unlock()
		if enqueue {
			h.enqueue(st)
		}
	}
	h.maybeDrained() // a hub with no live streams is drained already

	// Drain cooperatively: ownership of a scheduled stream comes from
	// dequeue, so Flush can service streams alongside Run's workers — and
	// with no Run active (never started, or its workers exited on
	// cancellation) this loop is the only consumer and drains everything,
	// including streams scheduled before Flush was called.
	done := ctxDone(ctx)
	for {
		for st := h.dequeue(); st != nil; st = h.dequeue() {
			h.service(ctx, st)
		}
		// A fired ctx wins over a completed drain: cancellation makes
		// deliver drop matches, so a drain that "finished" under a
		// cancelled ctx is lossy and must report ctx.Err(), not success.
		if done != nil {
			select {
			case <-done:
				return ctxErr(ctx)
			default:
			}
		}
		select {
		case <-h.drained:
			h.runEnd.Do(func() { close(h.runExit) })
			close(h.out)
			return nil
		case <-done:
			return ctxErr(ctx)
		case <-h.wake:
		}
	}
}

// Stats returns a snapshot of the hub's accounting. Safe to call
// concurrently with everything.
func (h *Hub) Stats() Stats {
	snap := h.state.Load()
	// Load processed before points: a point is counted in points before
	// any worker can process it, so this order keeps the snapshot's
	// Processed <= Points even while both advance concurrently.
	processed := h.processed.Load()
	points := h.points.Load()
	st := Stats{
		Streams:   len(snap.streams),
		Queries:   len(snap.queries),
		Points:    points,
		Processed: processed,
		Matches:   h.matches.Load(),
		Rejected:  h.rejected.Load(),
		PerQuery:  make([]QueryStats, len(snap.queries)),
	}
	for i, q := range snap.queries {
		qs := QueryStats{
			ID:      q.id,
			Matches: q.matches.Load(),
			Appends: q.appends.Load(),
			Skipped: q.skipped.Load(),
		}
		st.PerQuery[i] = qs
		st.Appends += qs.Appends
		st.Skipped += qs.Skipped
	}
	return st
}
