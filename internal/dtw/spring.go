package dtw

import (
	"fmt"
	"math"

	"sdtw/internal/series"
)

// Spring is the incremental, streaming formulation of the open-begin /
// open-end subsequence DTW that Subsequence computes offline — the SPRING
// algorithm of Sakurai, Faloutsos and Yamamuro (ICDE 2007), adapted to
// this package's conventions. It holds O(|q|) state per query (one DP
// column plus its star-padding start pointers), consumes one stream point
// per Append in O(|q|) time, and never looks at past stream values again:
// the stream may be unbounded.
//
// Two reporting modes coexist:
//
//   - the running global best (Best), which — as long as no thresholded
//     match has been emitted — after t points is bit-identical to
//     Subsequence(q, stream[:t]): same Start, End and Distance, same
//     tie-breaking, because both run the very same recurrence with the
//     same comparison order;
//   - thresholded emission (Append's return), the SPRING semantics: once a
//     region's distance drops to Threshold or below, the match is reported
//     as soon as no still-open warp path could improve or overlap it, and
//     overlapping state is invalidated so reported matches never overlap.
//     MinGap additionally keeps the next match's start at least MinGap+1
//     points past the previous match's end.
//
// A Spring is not safe for concurrent use.
type Spring struct {
	q         []float64
	threshold float64
	minGap    int
	// filter arms the time-domain prefilter for AppendFiltered: only set
	// for a finite threshold and a NaN-free query (see
	// SpringConfig.Prefilter). qmin/qmax are the query's value range
	// — its radius-∞ envelope — so the cheapest possible alignment cost
	// of an out-of-range stream point v is (v-qmax)² or (qmin-v)².
	filter     bool
	qmin, qmax float64
	// dormant marks the DP column as logically +Inf after a dead point:
	// every cell is provably above the threshold, so the stored values
	// are stale and must be re-initialised before the next real advance.
	dormant bool

	// d[i] is the cost of the cheapest warp path consuming q[0..i] and
	// ending at the newest stream point; s[i] is the stream position where
	// that path entered row 0 (the "star padding" start pointer).
	d []float64
	s []int
	t int // stream points consumed so far

	best    SubsequenceMatch
	hasBest bool

	// Captured-but-unconfirmed thresholded match (SPRING's d_min, t_s, t_e).
	dmin   float64
	ts, te int
	// nextStart is the earliest stream position a path may begin at after
	// an emitted match (non-overlap plus the MinGap separation).
	nextStart int

	cells   int64
	skipped int64
}

// SpringConfig parameterises a Spring.
type SpringConfig struct {
	// Threshold enables SPRING match emission: a region whose subsequence
	// DTW distance is <= Threshold is reported once confirmed. +Inf (or
	// NaN) disables emission; Best still tracks the global optimum.
	Threshold float64
	// MinGap is the minimum number of stream points between an emitted
	// match's end and the next match's start.
	MinGap int
	// Prefilter arms the time-domain prefilter consumed through
	// AppendFiltered: stream points whose cheapest possible alignment
	// cost against any query element already exceeds Threshold skip the
	// O(|q|) column advance entirely. The skip is admissible — emitted
	// matches are bit-identical to plain Append — and only engages for a
	// finite Threshold and a NaN-free query; otherwise AppendFiltered
	// degrades to Append. Best is not
	// maintained across skipped points (only supra-threshold optima are
	// affected), so arm it only when thresholded emission is the output.
	Prefilter bool
}

// SpringTemplate is the stream-independent part of a Spring: the query,
// its validated configuration, and the prefilter constants. One template
// per standing query initialises (and re-initialises, via Init over
// recycled backing) any number of per-stream Spring states — the pooling
// seam fleet hubs slab-allocate O(|q|) state through.
type SpringTemplate struct {
	q          []float64
	threshold  float64
	minGap     int
	filter     bool
	qmin, qmax float64
}

// NewSpringTemplate validates one query's streaming configuration.
func NewSpringTemplate(q []float64, cfg SpringConfig) (*SpringTemplate, error) {
	if len(q) == 0 {
		return nil, fmt.Errorf("dtw: empty query: %w", series.ErrEmptySeries)
	}
	if cfg.MinGap < 0 {
		return nil, fmt.Errorf("dtw: negative match gap %d", cfg.MinGap)
	}
	threshold := cfg.Threshold
	if math.IsNaN(threshold) {
		threshold = math.Inf(1)
	}
	t := &SpringTemplate{
		q:         q,
		threshold: threshold,
		minGap:    cfg.MinGap,
	}
	if cfg.Prefilter && !math.IsInf(threshold, 1) {
		qmin, qmax := q[0], q[0]
		hasNaN := false
		for _, x := range q {
			if math.IsNaN(x) {
				hasNaN = true
				break
			}
			if x < qmin {
				qmin = x
			}
			if x > qmax {
				qmax = x
			}
		}
		// A NaN query element voids the range bound (its alignment cost
		// is NaN, below no threshold); leave the filter disarmed.
		if !hasNaN {
			t.filter, t.qmin, t.qmax = true, qmin, qmax
		}
	}
	return t, nil
}

// StateLen is the per-stream state size in elements: Init needs backing
// slices of at least this length (one float64 and one int per element).
func (t *SpringTemplate) StateLen() int { return len(t.q) }

// Init initialises sp in place over caller-owned backing — d and s must
// each hold at least StateLen elements and must not be shared between
// live springs. Re-initialising a recycled Spring through Init (or
// Reset) restores the exact state of a freshly constructed one.
func (t *SpringTemplate) Init(sp *Spring, d []float64, s []int) {
	n := len(t.q)
	inf := math.Inf(1)
	*sp = Spring{
		q:         t.q,
		threshold: t.threshold,
		minGap:    t.minGap,
		filter:    t.filter,
		qmin:      t.qmin,
		qmax:      t.qmax,
		d:         d[:n:n],
		s:         s[:n:n],
		best:      SubsequenceMatch{Distance: inf},
		dmin:      inf,
	}
	for i := range sp.d {
		sp.d[i] = inf
	}
}

// NewSpring builds the streaming state for one query with its own
// backing. Fleets sharing one query across many streams should build one
// SpringTemplate and Init states over slab-allocated backing instead.
func NewSpring(q []float64, cfg SpringConfig) (*Spring, error) {
	t, err := NewSpringTemplate(q, cfg)
	if err != nil {
		return nil, err
	}
	sp := new(Spring)
	t.Init(sp, make([]float64, len(q)), make([]int, len(q)))
	return sp, nil
}

// Reset returns a Spring to its just-initialised state, reusing its
// backing: the recycling path of pooled per-stream state. The query,
// cost, threshold and prefilter configuration are retained.
func (sp *Spring) Reset() {
	inf := math.Inf(1)
	sp.t = 0
	sp.cells, sp.skipped = 0, 0
	sp.best, sp.hasBest = SubsequenceMatch{Distance: inf}, false
	sp.dmin, sp.ts, sp.te = inf, 0, 0
	sp.nextStart = 0
	sp.dormant = false
	for i := range sp.d {
		sp.d[i] = inf
	}
}

// Append consumes the next stream point, advancing every DP cell once
// (O(|q|) work, no allocation). In thresholded mode it returns a match
// and true when the SPRING report condition confirms one; matches are
// emitted in stream order and never overlap.
//
//sdtw:hotpath
func (sp *Spring) Append(v float64) (SubsequenceMatch, bool) {
	t := sp.t
	sp.advanceSquared(v)
	sp.cells += int64(len(sp.q))
	sp.t = t + 1
	return sp.confirm(t)
}

// AppendFiltered is Append behind the time-domain prefilter. A stream
// point outside the query's value range by more than √threshold is dead:
// every warp path must align it with some query element at cost at least
// (v−qmax)² (or (qmin−v)²), so after consuming it every DP cell would
// exceed the threshold — no region containing the point can ever be
// emitted, and cells above the threshold can never re-enter emission
// (costs only accumulate). Dead points therefore skip the O(|q|) column
// advance entirely: the column is marked dormant (logically all +Inf),
// the pending match — which the supra-threshold column would confirm —
// is reported, and the state resumes from scratch at the next live
// point. Emitted matches are bit-identical to plain Append's; only Best
// diverges (it stops tracking supra-threshold optima across skips).
//
// With the filter disarmed (infinite threshold, NaN query — see
// SpringConfig.Prefilter) this is exactly Append.
//
//sdtw:hotpath
func (sp *Spring) AppendFiltered(v float64) (SubsequenceMatch, bool) {
	if sp.filter {
		if v > sp.qmax {
			if dd := v - sp.qmax; dd*dd > sp.threshold {
				return sp.skip()
			}
		} else if v < sp.qmin {
			if dd := sp.qmin - v; dd*dd > sp.threshold {
				return sp.skip()
			}
		}
		if sp.dormant {
			// First live point after a dead stretch: the stored column is
			// stale. Re-initialise it to the dormant truth (+Inf) so the
			// ordinary advance restarts from fresh paths only.
			inf := math.Inf(1)
			for i := range sp.d {
				sp.d[i] = inf
			}
			sp.dormant = false
		}
	}
	return sp.Append(v)
}

// skip consumes a dead stream point in O(1): no column advance, no cell
// fills. The pending thresholded match, if any, is confirmed here — at
// this point the advanced column would hold no cell below its distance —
// exactly when plain Append would have reported it.
//
//sdtw:hotpath
func (sp *Spring) skip() (SubsequenceMatch, bool) {
	sp.t++
	sp.skipped++
	sp.dormant = true
	if !math.IsInf(sp.dmin, 1) {
		out := SubsequenceMatch{Start: sp.ts, End: sp.te, Distance: sp.dmin}
		sp.emitReset()
		return out, true
	}
	return SubsequenceMatch{}, false
}

// confirm runs the post-advance reporting logic for the column computed
// at stream position t: global-best tracking, the SPRING report
// condition, and pending-match capture.
//
//sdtw:hotpath
func (sp *Spring) confirm(t int) (SubsequenceMatch, bool) {
	n := len(sp.q)
	d, s := sp.d, sp.s

	// Global best, the offline-equivalent answer: strict < keeps the
	// earliest end on ties, exactly like Subsequence's final argmin scan.
	if d[n-1] < sp.best.Distance {
		sp.best = SubsequenceMatch{Start: s[n-1], End: t, Distance: d[n-1]}
		sp.hasBest = true
	}

	if math.IsInf(sp.threshold, 1) {
		return SubsequenceMatch{}, false
	}

	// SPRING report condition: the captured optimum is final once every
	// still-open path either cannot beat it or starts after its end.
	var out SubsequenceMatch
	emitted := false
	if !math.IsInf(sp.dmin, 1) {
		report := true
		for i := 0; i < n; i++ {
			if d[i] < sp.dmin && s[i] <= sp.te {
				report = false
				break
			}
		}
		if report {
			out = SubsequenceMatch{Start: sp.ts, End: sp.te, Distance: sp.dmin}
			emitted = true
			sp.emitReset()
		}
	}
	// Capture (or improve) the pending match from the current column.
	if last := d[n-1]; last <= sp.threshold && last < sp.dmin {
		sp.dmin, sp.ts, sp.te = last, s[n-1], t
	}
	return out, emitted
}

// advanceSquared advances every DP cell by one stream point.
//
// Row 0: the path may begin at the current point for free — unless the
// point falls inside the non-overlap / MinGap window of an emitted match,
// in which case no new path may start here. Rows 1..n-1 mirror the
// offline DP cell for cell: the comparison order (vertical, then
// diagonal, then horizontal, each on strict <) matches Subsequence
// exactly, so values AND start-pointer tie-breaks are bit-identical to
// the offline grid. The state slices are re-sliced to the query length so
// the compiler drops the per-cell bounds checks, and the just-written cell
// below (the vertical predecessor) is carried in registers instead of
// re-loaded. Differential tests pin it to a reference that re-reads it.
//
//sdtw:hotpath
func (sp *Spring) advanceSquared(v float64) {
	q := sp.q
	n := len(q)
	d := sp.d[:n]
	s := sp.s[:n]
	t := sp.t
	inf := math.Inf(1)

	diagD, diagS := d[0], s[0]
	var belowD float64
	var belowS int
	if t < sp.nextStart {
		belowD, belowS = inf, t
	} else {
		belowD, belowS = sq(q[0], v), t
	}
	d[0], s[0] = belowD, belowS
	for i := 1; i < n; i++ {
		best, from := belowD, belowS // vertical
		if diagD < best {            // diagonal
			best, from = diagD, diagS
		}
		if d[i] < best { // horizontal
			best, from = d[i], s[i]
		}
		diagD, diagS = d[i], s[i]
		if math.IsInf(best, 1) {
			best, from = inf, t
			d[i], s[i] = inf, t
			belowD, belowS = best, from
			continue
		}
		dd := q[i] - v
		best = best + float64(dd*dd)
		d[i], s[i] = best, from
		belowD, belowS = best, from
	}
}

// emitReset clears the captured match and invalidates every open path
// that overlaps it (or starts inside the MinGap window), enforcing
// non-overlapping emission.
//
//sdtw:hotpath
func (sp *Spring) emitReset() {
	sp.nextStart = sp.te + 1 + sp.minGap
	sp.dmin = math.Inf(1)
	inf := math.Inf(1)
	for i, start := range sp.s {
		if start < sp.nextStart {
			sp.d[i] = inf
		}
	}
}

// Flush confirms the pending thresholded match, if any — at end-of-stream
// nothing can improve or extend it. It returns false in best-only mode or
// when no region ever dropped to the threshold since the last emission.
func (sp *Spring) Flush() (SubsequenceMatch, bool) {
	if math.IsInf(sp.dmin, 1) {
		return SubsequenceMatch{}, false
	}
	out := SubsequenceMatch{Start: sp.ts, End: sp.te, Distance: sp.dmin}
	sp.emitReset()
	return out, true
}

// Best returns the global best match over everything consumed so far,
// and false if no point has been consumed. With emission disabled
// (Threshold = +Inf) it is bit-identical to the offline Subsequence over
// the same points; with emission enabled, invalidation after each report
// restricts the optimum to paths that do not overlap emitted matches.
func (sp *Spring) Best() (SubsequenceMatch, bool) { return sp.best, sp.hasBest }

// Points returns the number of stream points consumed.
func (sp *Spring) Points() int { return sp.t }

// Cells returns the total DP cells filled (|q| per Append).
func (sp *Spring) Cells() int64 { return sp.cells }

// Skipped returns the stream points AppendFiltered consumed without
// advancing the column — the time-domain prefilter's O(|q|)→O(1) wins.
func (sp *Spring) Skipped() int64 { return sp.skipped }
