package sdtw

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sdtw/internal/dtw"
)

// Match is one subsequence occurrence reported by a Monitor: the region
// [Start, End] (inclusive stream positions, counted from the first point
// ever pushed) whose subsequence DTW distance to the query is Distance.
type Match struct {
	// Query is the index of the matched query in the monitor's query list.
	Query int
	// QueryID is that query's Series.ID ("" if the series is unkeyed).
	QueryID string
	// Start and End delimit the matched stream region, inclusive.
	Start, End int
	// Distance is the subsequence DTW distance between query and region.
	Distance float64
}

// QueryMonitorStats is the per-query slice of MonitorStats.
type QueryMonitorStats struct {
	// QueryID is the query's Series.ID ("" if unkeyed).
	QueryID string
	// Matches is the number of matches emitted for this query.
	Matches int64
	// Cells is the number of DP cells this query's recurrence filled
	// (|query| per stream point).
	Cells int64
	// Time is the wall time spent advancing this query's recurrence.
	Time time.Duration
}

// MonitorStats accounts for a monitor's work: stream points consumed,
// matches emitted, DP cells filled, and where the time went per query.
type MonitorStats struct {
	// Points is the number of stream points consumed so far.
	Points int64
	// Matches is the number of matches emitted so far (Push and Flush).
	Matches int64
	// Cells is the total DP cells filled across all queries.
	Cells int64
	// PushTime is the total wall time spent inside Push and PushBatch.
	PushTime time.Duration
	// PerQuery breaks matches, cells and time down by query.
	PerQuery []QueryMonitorStats
}

// monitorConfig is the resolved form of a MonitorOption list.
type monitorConfig struct {
	threshold    float64
	thresholdSet bool
	minGap       int
	bestOnly     bool
	workers      int
}

// MonitorOption configures a NewMonitor call, mirroring the SearchOption
// idiom of the retrieval surface.
type MonitorOption func(*monitorConfig)

// WithMatchThreshold enables streaming match emission: every stream
// region whose subsequence DTW distance to a query drops to d or below is
// reported by Push as soon as it is confirmed — i.e. once no still-open
// warp path could improve or overlap it (the SPRING report condition).
// Reported matches for one query never overlap. Without it (or with
// WithBestOnly) the monitor only tracks each query's single best match,
// reported by Flush.
func WithMatchThreshold(d float64) MonitorOption {
	return func(c *monitorConfig) { c.threshold, c.thresholdSet = d, true }
}

// WithMinGap requires at least g stream points between an emitted match's
// end and the next match's start for the same query. Zero (the default)
// only enforces non-overlap.
func WithMinGap(g int) MonitorOption {
	return func(c *monitorConfig) { c.minGap = g }
}

// WithBestOnly makes Flush report each query's single global best match
// over the whole stream — the offline Subsequence answer — instead of
// streaming thresholded emission. Combined with WithMatchThreshold the
// threshold becomes a filter: Flush reports the best match only if its
// distance is within the threshold. This is the default when no
// threshold is given.
func WithBestOnly() MonitorOption {
	return func(c *monitorConfig) { c.bestOnly = true }
}

// WithMonitorWorkers bounds the worker pool Push and PushBatch fan
// queries out across, overriding Options.Workers for this monitor.
// n <= 0 means GOMAXPROCS; 1 forces sequential processing. Fan-out only
// engages for multi-query monitors, on calls carrying enough DP work to
// repay it (see fanOutCells); results are independent of the worker count.
func WithMonitorWorkers(n int) MonitorOption {
	return func(c *monitorConfig) { c.workers = n }
}

// monitorQuery is the per-query streaming state.
type monitorQuery struct {
	id      string
	sp      *dtw.Spring
	matches int64
	time    time.Duration
	out     []Match // per-call emission buffer, reused across pushes
}

// Monitor is the streaming subsequence surface: it watches one unbounded
// stream for occurrences of a set of query patterns using SPRING-style
// incremental subsequence DTW. State is O(|query|) per query and each
// pushed point costs O(Σ|query|) — past stream values are never revisited,
// so the stream may be unbounded.
//
// Push and PushBatch consume stream points and return the matches they
// confirmed; Flush ends the stream, reporting each query's pending (or,
// in best-only mode, global best) match and closing the monitor. The
// per-point recurrence is the squared-cost column advance (see the
// README's Performance section). A Monitor is safe for concurrent use in the sense that Stats may be read
// while another goroutine pushes; pushing itself must come from one
// goroutine at a time (calls are serialised by an internal lock, but the
// stream order would otherwise be unspecified).
//
// Cancellation: a context cancelled before any point of the call is
// consumed leaves the monitor untouched; one cancelled mid-batch stops
// the work promptly with ctx.Err() and closes the monitor, because its
// queries may no longer agree on the stream position. Every call on a
// closed monitor reports ErrMonitorClosed — Flush is terminal, exactly
// once, by every path into the closed state (the contract the fleet Hub
// relies on when recycling stream state; see Hub for monitoring many
// streams against shared standing queries in one process).
type Monitor struct {
	mu       sync.Mutex
	queries  []monitorQuery
	workers  int
	bestOnly bool
	// threshold in best-only mode filters the final best match; in
	// emission mode it lives inside each Spring.
	threshold float64
	closed    bool
	points    int64
	matches   int64
	pushTime  time.Duration
	one       [1]float64 // Push's allocation-free single-point batch
	// queryCells is Σ|query|: the DP cells one stream point costs.
	queryCells int
}

// NewMonitor builds a streaming monitor over the given query patterns.
// Every query must be non-empty and non-empty query IDs must be unique
// (they label emitted matches). Of opts, the monitor uses Workers; band
// options do not apply — open-begin subsequence
// alignment runs the full per-point recurrence.
func NewMonitor(queries []Series, opts Options, mopts ...MonitorOption) (*Monitor, error) {
	cfg := monitorConfig{threshold: math.Inf(1), workers: opts.Workers}
	for _, o := range mopts {
		o(&cfg)
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("sdtw: NewMonitor: no queries: %w", ErrEmptyCollection)
	}
	if cfg.thresholdSet && (math.IsNaN(cfg.threshold) || cfg.threshold < 0) {
		return nil, fmt.Errorf("sdtw: NewMonitor: WithMatchThreshold needs a non-negative number, got %v", cfg.threshold)
	}
	if cfg.minGap < 0 {
		return nil, fmt.Errorf("sdtw: NewMonitor: negative WithMinGap %d", cfg.minGap)
	}
	bestOnly := cfg.bestOnly || !cfg.thresholdSet
	springThreshold := math.Inf(1)
	if !bestOnly {
		springThreshold = cfg.threshold
	}
	m := &Monitor{
		queries:   make([]monitorQuery, len(queries)),
		workers:   resolveWorkers(cfg.workers),
		bestOnly:  bestOnly,
		threshold: cfg.threshold,
	}
	seen := make(map[string]int, len(queries))
	for i, q := range queries {
		if q.Len() == 0 {
			return nil, fmt.Errorf("sdtw: NewMonitor: query %d: %w", i, ErrEmptySeries)
		}
		if q.ID != "" {
			if prev, dup := seen[q.ID]; dup {
				return nil, fmt.Errorf("sdtw: NewMonitor: queries %d and %d share ID %q: %w", prev, i, q.ID, ErrDuplicateID)
			}
			seen[q.ID] = i
		}
		sp, err := dtw.NewSpring(q.Values, dtw.SpringConfig{
			Threshold: springThreshold,
			MinGap:    cfg.minGap,
		})
		if err != nil {
			return nil, fmt.Errorf("sdtw: NewMonitor: query %d: %w", i, err)
		}
		m.queries[i] = monitorQuery{id: q.ID, sp: sp}
		m.queryCells += q.Len()
	}
	return m, nil
}

// Push consumes one stream point and returns the matches it confirmed
// (nil on quiet points — the steady-state path allocates nothing).
//
//sdtw:hotpath
func (m *Monitor) Push(ctx context.Context, v float64) ([]Match, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.one[0] = v
	return m.push(ctx, m.one[:])
}

// PushBatch consumes a batch of stream points — equivalent to pushing
// them one by one, but amortising the per-call overhead and fanning
// multi-query work out across the worker pool once per batch.
//
//sdtw:hotpath
func (m *Monitor) PushBatch(ctx context.Context, values []float64) ([]Match, error) {
	if len(values) == 0 {
		return nil, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.push(ctx, values)
}

// fanOutCells is the DP work (stream points × Σ|query| cells) a push must
// carry before it fans out across the worker pool. Starting the workers
// costs goroutines, a WaitGroup and an error slice — 6–8 µs and 7
// allocations on 2 cores — which a one-point Push over 32 queries of
// length 128 (4 096 cells, ~15 µs sequential) never earns back; on that
// shape fanning out broke even between 5 and 8 points.
const fanOutCells = 32 * 1024

// cancelCheckPoints is how often (in stream points) a push polls its
// context; a point is O(|query|) work, so the poll stays off the hot
// path while bounding cancellation latency.
const cancelCheckPoints = 64

// streamCtxErr is ctx.Err() tolerating a nil context, mirroring the
// retrieval surface: Index.Search accepts a nil context and so do Push,
// PushBatch and Flush — a nil context simply never cancels.
func streamCtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// push advances every query over values. Caller holds m.mu.
//
//sdtw:hotpath
func (m *Monitor) push(ctx context.Context, values []float64) ([]Match, error) {
	if m.closed {
		return nil, fmt.Errorf("sdtw: Push: %w", ErrMonitorClosed)
	}
	// A context cancelled before any work leaves the monitor untouched
	// and reusable.
	if err := streamCtxErr(ctx); err != nil {
		return nil, err
	}
	start := time.Now()
	var err error
	if m.workers > 1 && len(m.queries) > 1 && len(values)*m.queryCells >= fanOutCells {
		err = m.pushParallel(ctx, values)
	} else {
		for qi := range m.queries {
			if err = m.process(ctx, qi, values); err != nil {
				break
			}
		}
	}
	m.pushTime += time.Since(start)
	if err != nil {
		// Mid-batch cancellation: the queries may disagree on the stream
		// position, so the monitor cannot keep going.
		m.closed = true
		return nil, err
	}
	m.points += int64(len(values))
	return m.collect(), nil
}

// process advances one query over values, buffering emitted matches.
// Per-query timing is only split out for multi-query monitors: a
// single-query monitor's time is its push time (Stats mirrors it), and
// skipping the extra clock reads keeps the per-point hot path lean.
//
//sdtw:hotpath
func (m *Monitor) process(ctx context.Context, qi int, values []float64) error {
	q := &m.queries[qi]
	q.out = q.out[:0]
	var start time.Time
	timed := len(m.queries) > 1
	if timed {
		start = time.Now()
	}
	for k, v := range values {
		if k%cancelCheckPoints == 0 && k > 0 {
			if err := streamCtxErr(ctx); err != nil {
				if timed {
					q.time += time.Since(start)
				}
				return err
			}
		}
		if match, ok := q.sp.Append(v); ok {
			q.matches++
			q.out = append(q.out, Match{
				Query: qi, QueryID: q.id,
				Start: match.Start, End: match.End, Distance: match.Distance,
			})
		}
	}
	if timed {
		q.time += time.Since(start)
	}
	return nil
}

// pushParallel fans the queries out across the bounded worker pool; each
// worker runs whole queries over the whole batch, so queries never share
// mutable state and the fan-out is free of per-point synchronisation.
func (m *Monitor) pushParallel(ctx context.Context, values []float64) error {
	w := m.workers
	if w > len(m.queries) {
		w = len(m.queries)
	}
	var next atomic.Int64
	errs := make([]error, w)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				qi := int(next.Add(1)) - 1
				if qi >= len(m.queries) {
					return
				}
				if err := m.process(ctx, qi, values); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// collect gathers the per-query emission buffers into one stream-ordered
// slice (nil when nothing was emitted, keeping quiet pushes allocation-
// free).
func (m *Monitor) collect() []Match {
	total := 0
	for qi := range m.queries {
		total += len(m.queries[qi].out)
	}
	if total == 0 {
		return nil
	}
	out := make([]Match, 0, total)
	for qi := range m.queries {
		out = append(out, m.queries[qi].out...)
	}
	m.matches += int64(total)
	sortMatches(out)
	return out
}

// sortMatches orders emitted matches by stream position, then query.
func sortMatches(out []Match) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].End != out[j].End {
			return out[i].End < out[j].End
		}
		if out[i].Query != out[j].Query {
			return out[i].Query < out[j].Query
		}
		return out[i].Start < out[j].Start
	})
}

// Flush ends the stream and closes the monitor. In thresholded mode it
// confirms each query's pending match (nothing after end-of-stream can
// improve or extend it); in best-only mode it reports each query's
// single global best match — for a monitor built with default options
// this is exactly the offline Subsequence answer. Calls after Flush
// report ErrMonitorClosed.
func (m *Monitor) Flush() ([]Match, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("sdtw: Flush: %w", ErrMonitorClosed)
	}
	m.closed = true
	var out []Match
	for qi := range m.queries {
		q := &m.queries[qi]
		var match dtw.SubsequenceMatch
		var ok bool
		if m.bestOnly {
			match, ok = q.sp.Best()
			ok = ok && match.Distance <= m.threshold
		} else {
			match, ok = q.sp.Flush()
		}
		if ok {
			q.matches++
			out = append(out, Match{
				Query: qi, QueryID: q.id,
				Start: match.Start, End: match.End, Distance: match.Distance,
			})
		}
	}
	m.matches += int64(len(out))
	sortMatches(out)
	return out, nil
}

// Stats returns a snapshot of the monitor's accounting. It is safe to
// call concurrently with pushes (it serialises against them) and keeps
// working after Flush.
func (m *Monitor) Stats() MonitorStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := MonitorStats{
		Points:   m.points,
		Matches:  m.matches,
		PushTime: m.pushTime,
		PerQuery: make([]QueryMonitorStats, len(m.queries)),
	}
	for qi := range m.queries {
		q := &m.queries[qi]
		cells := q.sp.Cells()
		st.Cells += cells
		qTime := q.time
		if len(m.queries) == 1 {
			// A single query accounts for the whole push time; process
			// skips the redundant per-query clock reads on that path.
			qTime = m.pushTime
		}
		st.PerQuery[qi] = QueryMonitorStats{
			QueryID: q.id,
			Matches: q.matches,
			Cells:   cells,
			Time:    qTime,
		}
	}
	return st
}
