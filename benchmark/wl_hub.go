package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sdtw"
	"sdtw/internal/dtw"
)

// hubSpec sizes one of the two fleet-streaming workloads.
type hubSpec struct {
	streams, queries, queryLen int
	dead                       int // chunks of 16 that are far excursions
	ringBatches                int // batches in each stream's point ring
	tail                       float64
	tracedRounds               int  // batches per stream in the traced run
	monitorPhase               bool // hub-live's single-stream Monitor phase
}

// hubMaxRounds caps the batches one stream takes in a run, so the
// submission timestamps can be preallocated.
const hubMaxRounds = 512

const hubSampledStreams = 8

// sampleEvery is the stride of the correctness sample: streams 0,
// sampleEvery, 2*sampleEvery, ... are checked against a Monitor.
func (sp hubSpec) sampleEvery() int {
	if n := sp.streams / hubSampledStreams; n > 1 {
		return n
	}
	return 1
}

func hubSpecFor(name string, smoke bool) hubSpec {
	if name == "hub-dormant" {
		if smoke {
			return hubSpec{streams: 24, queries: 6, queryLen: 16, dead: 13, ringBatches: 2, tail: 75, tracedRounds: 2}
		}
		return hubSpec{streams: 1000, queries: 100, queryLen: 16, dead: 13, ringBatches: 8, tail: 99, tracedRounds: 4}
	}
	if smoke {
		return hubSpec{streams: 12, queries: 4, queryLen: 32, ringBatches: 2, tail: 75, tracedRounds: 2, monitorPhase: true}
	}
	return hubSpec{streams: 256, queries: 32, queryLen: 128, ringBatches: 8, tail: 95, tracedRounds: 4, monitorPhase: true}
}

// hubInstance is one set-up fleet: the generated points and a hub with
// every query and stream registered.
type hubInstance struct {
	fleet     fleet
	hub       *sdtw.Hub
	ids       []string
	index     map[string]int
	addStream time.Duration // summed AddStream time
}

func (sp hubSpec) monitorOptions() []sdtw.MonitorOption {
	return []sdtw.MonitorOption{sdtw.WithMatchThreshold(fleetThreshold), sdtw.WithMinGap(sp.queryLen)}
}

func (sp hubSpec) setup(seed int64) (*hubInstance, error) {
	inst := &hubInstance{
		fleet: makeFleet(sp.streams, sp.queries, sp.queryLen, sp.ringBatches*fleetBatch, sp.dead, seed),
		ids:   make([]string, sp.streams),
		index: make(map[string]int, sp.streams),
	}
	return inst, sp.newHub(inst)
}

// newHub (re)builds the instance's hub over the same fleet. The previous
// hub's arenas are collected first, so the process never holds two.
func (sp hubSpec) newHub(inst *hubInstance) error {
	inst.hub = nil
	runtime.GC()
	inst.hub = sdtw.NewHub(sdtw.Options{})
	for _, q := range inst.fleet.queries {
		if err := inst.hub.AddQuery(q.ID, q, sp.monitorOptions()...); err != nil {
			return err
		}
	}
	start := time.Now()
	for s := range inst.ids {
		inst.ids[s] = fmt.Sprintf("s%04d", s)
		inst.index[inst.ids[s]] = s
		if err := inst.hub.AddStream(inst.ids[s]); err != nil {
			return err
		}
	}
	inst.addStream = time.Since(start)
	return nil
}

// hubRun is the outcome of pushing a fleet through its hub.
type hubRun struct {
	wall, flush   time.Duration
	pushNS        int64     // caller time inside PushBatch, retries included
	pushCalls     int64     // PushBatch calls, refused ones included
	refused       int64     // calls refused with ErrHubBackpressure
	rounds        []int     // batches accepted per stream
	deliveryMS    []float64 // per match: submit of its last point's batch -> delivery
	lagPoints     []float64 // per match: points accepted on its stream beyond its end, at delivery
	sampled       map[int][]sdtw.StreamMatch
	closeStreamNS int64
	closed        int
	stats         sdtw.HubStats
}

func (r hubRun) points() int {
	var n int
	for _, b := range r.rounds {
		n += b * fleetBatch
	}
	return n
}

// drive pushes the fleet through the hub in rounds, closed loop: in each
// round the C clients hand every stream its next 512-point batch (client
// p owns streams p, p+C, ...; a batch the hub refuses with
// ErrHubBackpressure is retried), then wait until the hub has processed
// every accepted point before the next round starts — each stream has
// one batch outstanding, as a sensor that waits for its acknowledgement
// would. Rounds run until the deadline passes or maxRounds are done;
// then Flush drains what is pending. The wall runs through Flush.
// closeSome additionally times CloseStream on a few streams just before
// the flush.
func (sp hubSpec) drive(inst *hubInstance, rec *recorder, d time.Duration, maxRounds int, closeSome bool) (hubRun, error) {
	h := inst.hub
	run := hubRun{rounds: make([]int, sp.streams), sampled: map[int][]sdtw.StreamMatch{}}
	submitted := make([][]atomic.Int64, sp.streams) // submit time of each batch, ns since start
	accepted := make([]atomic.Int64, sp.streams)    // points accepted so far
	for s := range submitted {
		submitted[s] = make([]atomic.Int64, maxRounds)
	}
	sampleEvery := sp.sampleEvery()

	runErr := make(chan error, 1)
	go func() { runErr <- h.Run(context.Background()) }()
	start := time.Now()
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for m := range h.Matches() {
			now := int64(time.Since(start))
			s := inst.index[m.Stream]
			if b := m.End / fleetBatch; b < maxRounds {
				run.deliveryMS = append(run.deliveryMS, float64(now-submitted[s][b].Load())/1e6)
			}
			run.lagPoints = append(run.lagPoints, float64(accepted[s].Load()-int64(m.End)-1))
			if s%sampleEvery == 0 {
				run.sampled[s] = append(run.sampled[s], m)
			}
		}
	}()

	var pushErr atomic.Pointer[error]
	var pushNS, pushCalls, refused atomic.Int64
	deadline := start.Add(d)
	c := clients()
	for round := 0; round < maxRounds && (round == 0 || time.Now().Before(deadline)); round++ {
		roundSpan := rec.begin("hub.round", -1, round)
		var wg sync.WaitGroup
		for p := 0; p < c; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for s := p; s < sp.streams; s += c {
					batch := inst.fleet.batch(s, round)
					span := rec.begin("hub.PushBatch", roundSpan, round)
					t0 := time.Now()
					submitted[s][round].Store(int64(t0.Sub(start)))
					for {
						err := h.PushBatch(inst.ids[s], batch)
						pushCalls.Add(1)
						if err == nil {
							break
						}
						if !errors.Is(err, sdtw.ErrHubBackpressure) {
							pushErr.CompareAndSwap(nil, &err)
							return
						}
						refused.Add(1)
						pushNS.Add(int64(time.Since(t0)))
						time.Sleep(50 * time.Microsecond)
						t0 = time.Now()
					}
					pushNS.Add(int64(time.Since(t0)))
					rec.end(span)
					accepted[s].Add(fleetBatch)
					run.rounds[s] = round + 1
				}
			}(p)
		}
		wg.Wait()
		if pushErr.Load() != nil {
			break
		}
		for target := int64(round+1) * int64(sp.streams) * fleetBatch; h.Stats().Processed < target; {
			time.Sleep(200 * time.Microsecond)
		}
		rec.end(roundSpan)
	}
	if errp := pushErr.Load(); errp != nil {
		return run, *errp
	}
	if closeSome {
		// Close each sampled stream's neighbour: the correctness sample
		// itself stays open to the end.
		for s := 1; sampleEvery > 1 && s < sp.streams && run.closed < hubSampledStreams; s += sampleEvery {
			t0 := time.Now()
			if err := h.CloseStream(inst.ids[s]); err != nil {
				return run, err
			}
			run.closeStreamNS += int64(time.Since(t0))
			run.closed++
		}
	}
	span := rec.begin("hub.Flush", -1, -1)
	flushStart := time.Now()
	if err := h.Flush(context.Background()); err != nil {
		return run, err
	}
	<-consumed
	if err := <-runErr; err != nil {
		return run, err
	}
	rec.end(span)
	run.flush = time.Since(flushStart)
	run.wall = time.Since(start)
	run.pushNS, run.pushCalls, run.refused = pushNS.Load(), pushCalls.Load(), refused.Load()
	run.stats = h.Stats()
	return run, nil
}

func runHub(name string, cfg runConfig) (*runResult, error) {
	sp := hubSpecFor(name, cfg.smoke)
	res := &runResult{Workload: name, Seed: cfg.seed, Trace: cfg.trace, Correct: true, Metrics: newMetricSet()}
	inst, setupS, err := medianSetup(cfg.setupRepeats(), func() (*hubInstance, error) { return sp.setup(cfg.seed) }, nil)
	if err != nil {
		return nil, err
	}
	ih := newInputHash()
	inst.fleet.hash(ih)
	res.Inputs = ih.sum()
	if cfg.trace {
		return res, sp.traced(cfg, inst, res)
	}

	// Warm-up: one batch per stream through a hub of its own, so the
	// timed hub starts from fresh SPRING state in a warm process.
	if _, err := sp.drive(inst, nil, time.Minute, 1, false); err != nil {
		return nil, err
	}
	if err := sp.newHub(inst); err != nil {
		return nil, err
	}
	runtime.GC()
	before := sampleProcess()
	run, err := sp.drive(inst, nil, time.Duration(cfg.seconds*float64(time.Second)), hubMaxRounds, false)
	if err != nil {
		return nil, err
	}
	after := sampleProcess()
	points := run.points()
	batches := points / fleetBatch
	res.Attempted = batches
	if got := int(run.stats.Processed); got != points {
		res.fail(batches, "hub processed %d of %d accepted points", got, points)
	}
	setEndToEnd(res, setupS, run.deliveryMS, sp.tail, points, batches, run.wall, before, after)
	res.note("op latency is match delivery: submit of the batch holding a match's last point -> receipt on Matches(); %d matches", len(run.deliveryMS))
	sp.checkAgainstMonitors(inst, run, res)
	return res, nil
}

// checkAgainstMonitors is the hub workloads' correctness check: the
// emissions of the sampled streams must be bit-identical to one Monitor
// per stream fed the same points.
func (sp hubSpec) checkAgainstMonitors(inst *hubInstance, run hubRun, res *runResult) {
	type key struct {
		query      string
		start, end int
		bits       uint64
	}
	for s := 0; s < sp.streams; s += sp.sampleEvery() {
		res.Attempted++
		mon, err := sdtw.NewMonitor(inst.fleet.queries, sdtw.Options{}, sp.monitorOptions()...)
		if err != nil {
			res.fail(1, "stream %d: %v", s, err)
			continue
		}
		var want []key
		add := func(ms []sdtw.Match) {
			for _, m := range ms {
				want = append(want, key{m.QueryID, m.Start, m.End, math.Float64bits(m.Distance)})
			}
		}
		for r := 0; r < run.rounds[s] && err == nil; r++ {
			var ms []sdtw.Match
			ms, err = mon.PushBatch(context.Background(), inst.fleet.batch(s, r))
			add(ms)
		}
		if err == nil {
			var ms []sdtw.Match
			ms, err = mon.Flush()
			add(ms)
		}
		if err != nil {
			res.fail(1, "stream %d: monitor: %v", s, err)
			continue
		}
		got := make([]key, 0, len(run.sampled[s]))
		for _, m := range run.sampled[s] {
			got = append(got, key{m.Query, m.Start, m.End, math.Float64bits(m.Distance)})
		}
		less := func(v []key) func(a, b int) bool {
			return func(a, b int) bool {
				if v[a].end != v[b].end {
					return v[a].end < v[b].end
				}
				return v[a].query < v[b].query
			}
		}
		sort.Slice(got, less(got))
		sort.Slice(want, less(want))
		same := len(got) == len(want)
		for i := 0; same && i < len(got); i++ {
			same = got[i] == want[i]
		}
		if !same {
			res.fail(1, "stream %d: hub emitted %d matches, its monitor %d, or they differ", s, len(got), len(want))
		}
	}
}

// traced is the attribution run of a hub workload: a fixed number of
// rounds, once untraced and once with a span around every round, every
// PushBatch and the Flush, then sampled (stream, query) pairs replayed
// through dtw.Spring for the per-column costs.
func (sp hubSpec) traced(cfg runConfig, inst *hubInstance, res *runResult) error {
	m := res.Metrics
	measureMachine(m)
	addStreamUS := float64(inst.addStream.Microseconds()) / float64(sp.streams)
	var untraced hubRun
	var err error
	// One warm-up round, then the same rounds untraced and traced, each on
	// a hub of its own.
	for _, rounds := range []int{1, sp.tracedRounds} {
		if untraced, err = sp.drive(inst, nil, time.Hour, rounds, false); err != nil {
			return err
		}
		if err := sp.newHub(inst); err != nil {
			return err
		}
	}
	runtime.GC()
	before := sampleProcess()
	rec := newRecorder()
	run, err := sp.drive(inst, rec, time.Hour, sp.tracedRounds, true)
	if err != nil {
		return err
	}
	after := sampleProcess()
	points := run.points()
	setProcessMetrics(m, before, after, points/fleetBatch)
	res.Spans = rec.totals()
	res.Attempted = points / fleetBatch
	if got := int(run.stats.Processed); got != points {
		res.fail(res.Attempted, "hub processed %d of %d accepted points", got, points)
	}
	sp.checkAgainstMonitors(inst, run, res)

	st := run.stats
	advances := float64(st.Appends + st.Skipped)
	m.set("user.points_per_s", float64(untraced.points())/untraced.wall.Seconds())
	m.set("hub.push_ns_per_point", ratio(float64(run.pushNS), float64(points)))
	m.set("hub.skip_share", ratio(float64(st.Skipped), advances))
	m.set("hub.appends_per_point", ratio(float64(st.Appends), float64(points)))
	m.set("hub.backpressure_share", ratio(float64(run.refused), float64(run.pushCalls)))
	m.set("hub.flush_ms", float64(run.flush)/1e6)
	m.set("hub.matches", float64(st.Matches))
	lag := sortedCopy(run.lagPoints)
	m.setN("hub.match_lag_points_p50", percentile(lag, 50), len(lag))
	m.setN("hub.match_lag_points_p90", percentile(lag, 90), len(lag))
	m.set("hub.add_stream_us", addStreamUS)
	m.set("hub.close_stream_us", ratio(float64(run.closeStreamNS)/1e3, float64(run.closed)))
	m.set("trace.spans", float64(rec.count()))
	// A round's span runs from its first PushBatch until the hub has
	// processed the round; its self time is the producers' wait for the
	// hub's workers.
	m.set("trace.coverage", ratio(float64(res.Spans["hub.round"].Total+res.Spans["hub.Flush"].Total), float64(run.wall)))
	m.set("trace.overhead_share", ratio((run.wall-untraced.wall).Seconds(), untraced.wall.Seconds()))
	if cfg.traceOut != "" {
		if err := rec.writeJSON(cfg.traceOut); err != nil {
			return err
		}
	}
	if err := sp.probeSpring(inst, m); err != nil {
		return err
	}
	if sp.monitorPhase {
		if err := sp.probeMonitor(inst, m); err != nil {
			return err
		}
	}
	m.set("user.failed_share", ratio(float64(res.Failed), float64(res.Attempted)))
	return nil
}

// probeSpring replays sampled (stream, query) pairs through dtw.Spring
// with the prefilter armed, the stream's in-band points and its dead
// points fed to separate states, so a column advance and a prefilter
// skip are each timed on their own.
func (sp hubSpec) probeSpring(inst *hubInstance, m *metricSet) error {
	scfg := dtw.SpringConfig{Threshold: fleetThreshold, MinGap: sp.queryLen, Prefilter: true}
	var appendNS, skipNS, appends, skips int64
	for k := 0; k < hubSampledStreams && k < sp.streams; k++ {
		s := k * sp.streams / hubSampledStreams
		var live, dead []float64
		for _, v := range inst.fleet.streams[s] {
			if v > fleetDeadLevel/2 {
				dead = append(dead, v)
			} else {
				live = append(live, v)
			}
		}
		q := inst.fleet.queries[k%sp.queries].Values
		for _, part := range []struct {
			points   []float64
			ns, adv  *int64
			wantSkip bool
		}{{live, &appendNS, &appends, false}, {dead, &skipNS, &skips, true}} {
			spg, err := dtw.NewSpring(q, scfg)
			if err != nil {
				return err
			}
			start := time.Now()
			for _, v := range part.points {
				spg.AppendFiltered(v)
			}
			*part.ns += int64(time.Since(start))
			if part.wantSkip {
				*part.adv += spg.Skipped()
			} else {
				*part.adv += int64(spg.Points()) - spg.Skipped()
			}
		}
	}
	m.set("dtw.spring_ns_per_append", ratio(float64(appendNS), float64(appends)))
	m.set("dtw.spring_ns_per_skip", ratio(float64(skipNS), float64(skips)))
	return nil
}

// probeMonitor is hub-live's single-stream phase: the same standing
// queries over one stream through a Monitor.
func (sp hubSpec) probeMonitor(inst *hubInstance, m *metricSet) error {
	mon, err := sdtw.NewMonitor(inst.fleet.queries, sdtw.Options{}, sp.monitorOptions()...)
	if err != nil {
		return err
	}
	rounds := 4 * sp.tracedRounds
	start := time.Now()
	for r := 0; r < rounds; r++ {
		if _, err := mon.PushBatch(context.Background(), inst.fleet.batch(0, r)); err != nil {
			return err
		}
	}
	if _, err := mon.Flush(); err != nil {
		return err
	}
	m.set("monitor.points_per_s", float64(rounds*fleetBatch)/time.Since(start).Seconds())
	return nil
}
