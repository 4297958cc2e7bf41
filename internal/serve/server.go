// Package serve implements the HTTP (JSON) surface of the sdtwd search
// service: search/add/remove/stats endpoints over a sharded index,
// request admission with bounded in-flight searches and a bounded wait
// queue (429 on overload), and graceful drain — in-flight searches run
// to completion while the health check flips unhealthy, with a hard
// deadline that cancels the remaining dynamic programs through the
// cancellation already threaded into the DP.
//
// The package is separate from cmd/sdtwd so the benchmark harness and
// the drain tests can run the exact serving path in-process.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"sdtw"
)

const (
	// maxBodyBytes caps a request body (a series of several hundred
	// thousand points in JSON); a larger one is answered 413 before it is
	// buffered.
	maxBodyBytes = 8 << 20
	// readHeaderTimeout closes a connection whose request header has not
	// arrived in full, so idle or trickling clients cannot hold
	// connections open indefinitely.
	readHeaderTimeout = 10 * time.Second
	// readTimeout bounds a whole request, header and body: a body trickled
	// in below ~140 KB/s for the full 8 MiB is cut off rather than holding
	// its connection (it never holds an in-flight slot — those are taken
	// after the body is decoded).
	readTimeout = time.Minute
	// maxHeaderBytes caps a request header; the API carries nothing in
	// headers, so net/http's 1 MiB default is 16× more than it needs.
	maxHeaderBytes = 64 << 10
)

// Config tunes a Server.
type Config struct {
	// MaxInflight bounds the searches executing concurrently; further
	// searches wait in the admission queue. <= 0 means GOMAXPROCS.
	MaxInflight int
	// MaxQueue bounds the searches waiting for an in-flight slot; beyond
	// it the server answers 429 immediately (backpressure, not
	// buffering). <= 0 means 4×MaxInflight.
	MaxQueue int
	// DefaultK answers search requests that set neither k nor threshold.
	// <= 0 means 1.
	DefaultK int
}

// Server is the HTTP serving layer over one sharded index. Create with
// New, mount Handler, and on shutdown call StartDrain before
// http.Server.Shutdown (and CancelInflight once the drain deadline
// expires).
type Server struct {
	ix  *sdtw.ShardedIndex
	cfg Config

	// sem holds one token per in-flight search; waiting counts searches
	// queued for a token. Mutations are not admission-controlled: they
	// are cheap relative to searches and arrive at control-plane rates.
	sem     chan struct{}
	waiting atomic.Int64

	// base is cancelled by CancelInflight to stop still-running dynamic
	// programs at the drain deadline.
	base     context.Context
	cancel   context.CancelFunc
	draining atomic.Bool

	searches, adds, removes, rejected atomic.Int64
}

// New builds a server over ix.
func New(ix *sdtw.ShardedIndex, cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxInflight
	}
	if cfg.DefaultK <= 0 {
		cfg.DefaultK = 1
	}
	base, cancel := context.WithCancel(context.Background())
	return &Server{
		ix:     ix,
		cfg:    cfg,
		sem:    make(chan struct{}, cfg.MaxInflight),
		base:   base,
		cancel: cancel,
	}
}

// Handler returns the service's routes:
//
//	POST /v1/search   {"values":[...], "id":"", "k":5, "threshold":1.5, "workers":0}
//	POST /v1/add      {"id":"s-1", "label":0, "values":[...]}
//	POST /v1/remove   {"id":"s-1"}
//	GET  /v1/stats
//	GET  /healthz
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/search", s.handleSearch)
	mux.HandleFunc("POST /v1/add", s.handleAdd)
	mux.HandleFunc("POST /v1/remove", s.handleRemove)
	mux.HandleFunc("POST /v1/compact", s.handleCompact)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// StartDrain flips the health check unhealthy so load balancers steer
// new traffic away; already-admitted work keeps running. Call before
// http.Server.Shutdown.
func (s *Server) StartDrain() { s.draining.Store(true) }

// CancelInflight cancels every in-flight search's dynamic programs — the
// hard stop after the drain deadline. The server stays cancelled; it is
// meant to exit next.
func (s *Server) CancelInflight() { s.cancel() }

// Draining reports whether StartDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// SearchRequest is the /v1/search body.
type SearchRequest struct {
	// ID optionally names the query; an indexed series sharing it is
	// excluded from the results (self-exclusion).
	ID string `json:"id,omitempty"`
	// Values is the query series.
	Values []float64 `json:"values"`
	// K requests the k nearest neighbours. 0 with no threshold means the
	// server's default; 0 with a threshold means every neighbour within
	// it (range search).
	K int `json:"k,omitempty"`
	// Threshold restricts results to distances <= it (and seeds the
	// pruning cascade). Absent means no limit; an explicit 0 is honoured
	// (exact matches only).
	Threshold *float64 `json:"threshold,omitempty"`
	// Workers overrides the per-search worker budget when positive; it is
	// clamped to GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
}

// HitJSON is one result of a search response.
type HitJSON struct {
	ID       string  `json:"id"`
	Label    int     `json:"label"`
	Distance float64 `json:"distance"`
}

// SearchStatsJSON is the cascade accounting of one search response.
type SearchStatsJSON struct {
	Candidates   int     `json:"candidates"`
	PrunedSketch int     `json:"pruned_sketch"`
	PrunedKim    int     `json:"pruned_kim"`
	PrunedKeogh  int     `json:"pruned_keogh"`
	Evaluated    int     `json:"evaluated"`
	AbandonedDTW int     `json:"abandoned_dtw"`
	PruneRate    float64 `json:"prune_rate"`
	WallMS       float64 `json:"wall_ms"`
}

// SearchResponse is the /v1/search reply.
type SearchResponse struct {
	Hits  []HitJSON       `json:"hits"`
	Stats SearchStatsJSON `json:"stats"`
}

// AddRequest is the /v1/add body.
type AddRequest struct {
	ID     string    `json:"id"`
	Label  int       `json:"label,omitempty"`
	Values []float64 `json:"values"`
}

// RemoveRequest is the /v1/remove body.
type RemoveRequest struct {
	ID string `json:"id"`
}

// MutateResponse is the /v1/add and /v1/remove reply.
type MutateResponse struct {
	OK     bool `json:"ok"`
	Series int  `json:"series"`
}

// StatsResponse is the /v1/stats reply.
type StatsResponse struct {
	Series     int    `json:"series"`
	Shards     int    `json:"shards"`
	ShardSizes []int  `json:"shard_sizes"`
	Inflight   int    `json:"inflight"`
	Queued     int64  `json:"queued"`
	Searches   int64  `json:"searches"`
	Adds       int64  `json:"adds"`
	Removes    int64  `json:"removes"`
	Rejected   int64  `json:"rejected"`
	Draining   bool   `json:"draining"`
	Radius     int    `json:"radius"`
	Backend    string `json:"backend"`

	// Store-backed indexes additionally report their segment-store shape;
	// all four are zero for in-RAM indexes.
	StoreBacked bool `json:"store_backed"`
	Segments    int  `json:"segments,omitempty"`
	Tombstones  int  `json:"tombstones,omitempty"`
	SketchWidth int  `json:"sketch_width,omitempty"`

	// Degraded reports quarantined segments holding records back from
	// serving; Health and ShardHealth carry the damage detail (only for
	// store-backed indexes).
	Degraded    bool              `json:"degraded"`
	Health      *StoreHealthJSON  `json:"health,omitempty"`
	ShardHealth []StoreHealthJSON `json:"shard_health,omitempty"`
}

// StoreHealthJSON mirrors sdtw.StoreHealth on the stats and health
// replies.
type StoreHealthJSON struct {
	Quarantined        int   `json:"quarantined"`
	QuarantinedRecords int   `json:"quarantined_records"`
	RecoveredRecords   int   `json:"recovered_records"`
	TruncatedBytes     int64 `json:"truncated_bytes"`
	OrphansSwept       int   `json:"orphans_swept"`
}

// healthJSON lowers a store health onto its wire form.
func healthJSON(h sdtw.StoreHealth) StoreHealthJSON {
	return StoreHealthJSON{
		Quarantined:        h.Quarantined,
		QuarantinedRecords: h.QuarantinedRecords,
		RecoveredRecords:   h.RecoveredRecords,
		TruncatedBytes:     h.TruncatedBytes,
		OrphansSwept:       h.OrphansSwept,
	}
}

// CompactResponse is the /v1/compact reply.
type CompactResponse struct {
	OK          bool `json:"ok"`
	Segments    int  `json:"segments"`
	LiveRecords int  `json:"live_records"`
}

// errorResponse is every error reply: {"error": "..."}.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// decodeBody decodes the JSON body of a what request into v, reading at
// most maxBodyBytes of it. It reports whether it succeeded; if not it has
// already answered: 413 for a body over the cap, 400 for a malformed one.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, fmt.Errorf("decoding %s request: %w", what, err))
	return false
}

// statusFor maps the library's sentinel errors onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, sdtw.ErrUnknownID):
		return http.StatusNotFound
	case errors.Is(err, sdtw.ErrDuplicateID):
		return http.StatusConflict
	case errors.Is(err, sdtw.ErrNoID),
		errors.Is(err, sdtw.ErrEmptySeries),
		errors.Is(err, sdtw.ErrBadK),
		errors.Is(err, sdtw.ErrLengthMismatch),
		errors.Is(err, sdtw.ErrNonFinite),
		errors.Is(err, sdtw.ErrEmptyCollection):
		return http.StatusBadRequest
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// Drain deadline or client disconnect stopped the DP.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// overloaded reports whether a search arriving now would be refused:
// every in-flight slot taken and the wait queue full. handleSearch asks
// before it decodes, so a saturated server does not parse bodies it is
// about to answer 429; admit still has the last word.
func (s *Server) overloaded() bool {
	return len(s.sem) == cap(s.sem) && s.waiting.Load() >= int64(s.cfg.MaxQueue)
}

// refuse counts one shed search and returns its 429.
func (s *Server) refuse() (int, error) {
	s.rejected.Add(1)
	return http.StatusTooManyRequests,
		fmt.Errorf("over capacity: %d searches in flight and %d queued", s.cfg.MaxInflight, s.cfg.MaxQueue)
}

// admit acquires an in-flight slot, waiting in the bounded queue if the
// server is saturated. It returns a release function, or an HTTP status
// explaining the rejection.
func (s *Server) admit(ctx context.Context) (func(), int, error) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, 0, nil
	default:
	}
	if s.waiting.Add(1) > int64(s.cfg.MaxQueue) {
		s.waiting.Add(-1)
		status, err := s.refuse()
		return nil, status, err
	}
	defer s.waiting.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, 0, nil
	case <-ctx.Done():
		return nil, http.StatusServiceUnavailable, fmt.Errorf("cancelled while queued: %w", ctx.Err())
	}
}

// requestCtx derives the context a search runs under: the request's own
// (client disconnects cancel the DP) joined with the server's base (the
// drain deadline cancels every in-flight DP at once).
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.base, cancel)
	return ctx, func() { stop(); cancel() }
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if s.overloaded() {
		status, err := s.refuse()
		writeError(w, status, err)
		return
	}
	var req SearchRequest
	if !decodeBody(w, r, "search", &req) {
		return
	}
	if req.K < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("k must be >= 0, got %d", req.K))
		return
	}
	// The slot is taken only now, with the body already in memory: a
	// client sending its body slowly occupies a connection, not a slot.
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	release, status, err := s.admit(ctx)
	if err != nil {
		writeError(w, status, err)
		return
	}
	defer release()

	opts := make([]sdtw.SearchOption, 0, 3)
	switch {
	case req.K > 0:
		opts = append(opts, sdtw.WithK(req.K))
	case req.Threshold == nil:
		opts = append(opts, sdtw.WithK(s.cfg.DefaultK))
	}
	if req.Threshold != nil {
		opts = append(opts, sdtw.WithThreshold(*req.Threshold))
	}
	if req.Workers > 0 {
		// A client may narrow the fan-out, not multiply goroutines.
		opts = append(opts, sdtw.WithWorkers(min(req.Workers, runtime.GOMAXPROCS(0))))
	}
	query := sdtw.Series{ID: req.ID, Label: -1, Values: req.Values}
	hits, stats, err := s.ix.Search(ctx, query, opts...)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	s.searches.Add(1)
	resp := SearchResponse{
		Hits: make([]HitJSON, len(hits)),
		Stats: SearchStatsJSON{
			Candidates:   stats.Candidates,
			PrunedSketch: stats.PrunedSketch,
			PrunedKim:    stats.PrunedKim,
			PrunedKeogh:  stats.PrunedKeogh,
			Evaluated:    stats.Evaluated,
			AbandonedDTW: stats.AbandonedDTW,
			PruneRate:    stats.PruneRate(),
			WallMS:       float64(stats.WallTime.Microseconds()) / 1000,
		},
	}
	for i, h := range hits {
		resp.Hits[i] = HitJSON{ID: h.ID, Label: h.Label, Distance: h.Distance}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	var req AddRequest
	if !decodeBody(w, r, "add", &req) {
		return
	}
	if err := s.ix.Add(sdtw.NewSeries(req.ID, req.Label, req.Values)); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	s.adds.Add(1)
	writeJSON(w, http.StatusOK, MutateResponse{OK: true, Series: s.ix.Len()})
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	var req RemoveRequest
	if !decodeBody(w, r, "remove", &req) {
		return
	}
	if err := s.ix.Remove(req.ID); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	s.removes.Add(1)
	writeJSON(w, http.StatusOK, MutateResponse{OK: true, Series: s.ix.Len()})
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if err := s.ix.Compact(); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, sdtw.ErrNotStoreBacked) {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	st, err := s.ix.StoreStats()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, CompactResponse{OK: true, Segments: st.Segments, LiveRecords: st.LiveRecords})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	backend := "engine"
	if s.ix.Radius() >= 0 {
		backend = "windowed"
	}
	var storeStats sdtw.StoreStats
	if s.ix.StoreBacked() {
		if st, err := s.ix.StoreStats(); err == nil {
			storeStats = st
		}
	}
	resp := StatsResponse{
		Series:     s.ix.Len(),
		Shards:     s.ix.Shards(),
		ShardSizes: s.ix.ShardSizes(),
		Inflight:   len(s.sem),
		Queued:     s.waiting.Load(),
		Searches:   s.searches.Load(),
		Adds:       s.adds.Load(),
		Removes:    s.removes.Load(),
		Rejected:   s.rejected.Load(),
		Draining:   s.draining.Load(),
		Radius:     s.ix.Radius(),
		Backend:    backend,

		StoreBacked: s.ix.StoreBacked(),
		Segments:    storeStats.Segments,
		Tombstones:  storeStats.Tombstones,
		SketchWidth: storeStats.SketchWidth,
		Degraded:    storeStats.Health.Degraded(),
	}
	if s.ix.StoreBacked() {
		h := healthJSON(storeStats.Health)
		resp.Health = &h
		resp.ShardHealth = make([]StoreHealthJSON, len(storeStats.ShardHealth))
		for i, sh := range storeStats.ShardHealth {
			resp.ShardHealth[i] = healthJSON(sh)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// HealthResponse is the /healthz reply. A degraded server is still
// healthy (load balancers keep routing to it — the survivors serve);
// degraded flags that quarantined records are unavailable so operators
// alert and repair. Only draining answers 503.
type HealthResponse struct {
	OK                  bool `json:"ok"`
	Degraded            bool `json:"degraded,omitempty"`
	QuarantinedSegments int  `json:"quarantined_segments,omitempty"`
	QuarantinedRecords  int  `json:"quarantined_records,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	resp := HealthResponse{OK: true}
	if s.ix.StoreBacked() {
		if st, err := s.ix.StoreStats(); err == nil && st.Health.Degraded() {
			resp.Degraded = true
			resp.QuarantinedSegments = st.Health.Quarantined
			resp.QuarantinedRecords = st.Health.QuarantinedRecords
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// Run serves the handler on addr until ctx is cancelled, then drains:
// the listener closes, in-flight requests run to completion, and after
// drainTimeout any still-running dynamic programs are cancelled. It
// returns once the server has fully stopped — the wiring cmd/sdtwd and
// the drain tests share.
func (s *Server) Run(ctx context.Context, addr string, drainTimeout time.Duration, ready chan<- string) error {
	return s.run(ctx, s.httpServer(addr), drainTimeout, ready)
}

// httpServer is the http.Server Run serves on.
func (s *Server) httpServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

func (s *Server) run(ctx context.Context, hs *http.Server, drainTimeout time.Duration, ready chan<- string) error {
	ln, err := newListener(hs.Addr)
	if err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	if ready != nil {
		ready <- ln.Addr().String()
	}
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	s.StartDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err = hs.Shutdown(drainCtx)
	if err != nil {
		// Drain deadline passed: stop the remaining dynamic programs and
		// close whatever connections are left.
		s.CancelInflight()
		closeCtx, cancel2 := context.WithTimeout(context.Background(), time.Second)
		defer cancel2()
		_ = hs.Shutdown(closeCtx)
		_ = hs.Close()
	}
	<-serveErr // hs.Serve has returned http.ErrServerClosed
	return err
}

func newListener(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}
