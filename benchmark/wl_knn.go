package main

import (
	"container/heap"
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"sdtw"
	"sdtw/internal/band"
	"sdtw/internal/dtw"
	"sdtw/internal/lower"
	"sdtw/internal/match"
	"sdtw/internal/retrieve"
	"sdtw/internal/scalespace"
	"sdtw/internal/sift"
	"sdtw/internal/sketch"
)

// knnSpec sizes one of the three library k-NN workloads. The collection
// size and series length decide which layer dominates a query and are
// never cut; only the smoke variant shrinks them.
type knnSpec struct {
	dataset         string
	perClass, hold  int // instances per class in the collection / held out as queries
	length          int
	windowed        bool // exact Sakoe-Chiba DTW at radius instead of the sDTW engine
	radius          int
	tail            float64 // nominal tail percentile of op_tail_ms
	checkQueries    int     // brute-force checked after the timed section
	replayQueries   int     // replayed through the layer functions when traced
	qualityQueries  int     // compared against naive full DTW when traced (engine only)
	probeCandidates int     // candidates per probe query for the sampled layer probes
}

const knnK = 5

func knnSpecFor(name string, smoke bool) knnSpec {
	switch name {
	case "knn-match":
		if smoke {
			return knnSpec{dataset: "50Words", perClass: 2, hold: 1, length: 270, tail: 75, checkQueries: 2, replayQueries: 2, qualityQueries: 1, probeCandidates: 4}
		}
		return knnSpec{dataset: "50Words", perClass: 20, hold: 4, length: 270, tail: 75, checkQueries: 8, replayQueries: 16, qualityQueries: 16, probeCandidates: 32}
	case "knn-dp":
		if smoke {
			return knnSpec{dataset: "Trace", perClass: 6, hold: 1, length: 256, tail: 75, checkQueries: 2, replayQueries: 2, qualityQueries: 1, probeCandidates: 4}
		}
		return knnSpec{dataset: "Trace", perClass: 88, hold: 24, length: 1024, tail: 75, checkQueries: 8, replayQueries: 8, qualityQueries: 4, probeCandidates: 32}
	default: // knn-bounds
		if smoke {
			return knnSpec{dataset: "Trace", perClass: 100, hold: 4, length: 64, windowed: true, radius: 3, tail: 75, checkQueries: 2, replayQueries: 2, probeCandidates: 4}
		}
		return knnSpec{dataset: "Trace", perClass: 5000, hold: 600, length: 128, windowed: true, radius: 3, tail: 95, checkQueries: 8, replayQueries: 16, probeCandidates: 32}
	}
}

// knnInstance is one set-up of a k-NN workload.
type knnInstance struct {
	coll, queries []sdtw.Series
	ix            *sdtw.Index
}

func (sp knnSpec) setup(seed int64) (*knnInstance, error) {
	coll, queries, err := labeled(sp.dataset, sp.perClass, sp.hold, sp.length, seed)
	if err != nil {
		return nil, err
	}
	var ix *sdtw.Index
	if sp.windowed {
		ix, err = sdtw.NewWindowedIndex(coll, sp.radius)
	} else {
		ix, err = sdtw.NewIndex(coll, sdtw.DefaultOptions())
	}
	if err != nil {
		return nil, err
	}
	return &knnInstance{coll: coll, queries: queries, ix: ix}, nil
}

func runKNN(name string, cfg runConfig) (*runResult, error) {
	sp := knnSpecFor(name, cfg.smoke)
	res := &runResult{Workload: name, Seed: cfg.seed, Trace: cfg.trace, Correct: true, Metrics: newMetricSet()}
	inst, setupS, err := medianSetup(cfg.setupRepeats(), func() (*knnInstance, error) { return sp.setup(cfg.seed) }, nil)
	if err != nil {
		return nil, err
	}
	ih := newInputHash()
	ih.series(inst.coll)
	ih.series(inst.queries)
	res.Inputs = ih.sum()
	if cfg.trace {
		return res, sp.traced(cfg, inst, res)
	}

	ctx := context.Background()
	search := func(q sdtw.Series) ([]sdtw.Neighbor, error) {
		nb, _, err := inst.ix.Search(ctx, q, sdtw.WithK(knnK), sdtw.WithWorkers(1))
		return nb, err
	}
	// Warm-up from the tail of the query list, which the timed section
	// reaches last if at all.
	nq := len(inst.queries)
	for w := 0; w < 2*clients() && w < nq; w++ {
		if _, err := search(inst.queries[nq-1-w]); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	before := sampleProcess()
	loop := closedLoop(clients(), time.Duration(cfg.seconds*float64(time.Second)), func(c, i int) (int, error) {
		_, err := search(inst.queries[(c+i*clients())%nq])
		return 0, err
	})
	after := sampleProcess()
	lat := loop.byClass(0)
	res.Attempted = len(lat) + loop.failed
	res.Failed = loop.failed
	for _, e := range loop.errs {
		res.note("search failed: %v", e)
	}
	setEndToEnd(res, setupS, lat, sp.tail, len(lat), len(lat), loop.wall, before, after)

	rd := sp.replayData(inst)
	sp.checkBruteForce(inst, rd, res)
	return res, nil
}

// replayData is everything the cascade reads, rebuilt from the layers'
// exported constructors so the replay and the brute-force check touch
// no unexported index state.
type replayData struct {
	coll     []sdtw.Series
	envs     []lower.Envelope
	sketches []sketch.Sketch
	engine   *sdtw.Engine // nil for the windowed backend
	matchCfg match.Config
	bandCfg  band.Config
	window   dtw.Band // the windowed backend's one band

	envelopeTime time.Duration
}

func (sp knnSpec) replayData(inst *knnInstance) *replayData {
	rd := &replayData{
		coll:     inst.coll,
		envs:     make([]lower.Envelope, len(inst.coll)),
		sketches: make([]sketch.Sketch, len(inst.coll)),
		engine:   inst.ix.Engine(),
		matchCfg: match.DefaultConfig(),
		bandCfg:  band.Config{Strategy: band.AdaptiveCoreAdaptiveWidth},
	}
	if sp.windowed {
		rd.window = dtw.SakoeChibaRadius(sp.length, sp.length, sp.radius)
	}
	start := time.Now()
	for i, s := range inst.coll {
		r := sp.radius
		if !sp.windowed {
			r = band.EnvelopeRadius(rd.bandCfg, len(s.Values))
		}
		rd.envs[i] = lower.NewEnvelope(s.Values, r)
	}
	rd.envelopeTime = time.Since(start)
	for i := range rd.envs {
		sk, err := sketch.FromEnvelope(rd.envs[i], sdtw.DefaultSketchWidth)
		if err != nil {
			panic(err) // a width-16 sketch of a non-empty envelope cannot fail
		}
		rd.sketches[i] = sk
	}
	return rd
}

// pairScratch is the reusable state of one goroutine's pair distances.
type pairScratch struct {
	builder band.Builder
	dp      dtw.Workspace
}

// pairOutcome is what one backend distance computation reports, the
// replay's stand-in for retrieve.Result plus the band facts the band.*
// rows need.
type pairOutcome struct {
	dist      float64
	abandoned bool
	cells     int
	bandCells int
	keptPairs int
	fellBack  bool
	gridCells int
}

// distance is the backend distance of (q, c) under budget, computed
// through the layers' exported functions exactly as core.Engine and the
// windowed backend compose them. parent/op place its spans.
func (rd *replayData) distance(rec *recorder, parent, op int, q, c sdtw.Series, budget float64, ws *pairScratch) (pairOutcome, error) {
	out := pairOutcome{gridCells: len(q.Values) * len(c.Values)}
	b := rd.window
	if rd.engine != nil {
		id := rec.begin("core.Features", parent, op)
		fx, err := rd.engine.Features(q)
		if err != nil {
			return out, err
		}
		fy, err := rd.engine.Features(c)
		rec.end(id)
		if err != nil {
			return out, err
		}
		id = rec.begin("match.Match", parent, op)
		al, err := match.Match(fx, fy, len(q.Values), len(c.Values), rd.matchCfg)
		rec.end(id)
		if err != nil {
			return out, err
		}
		out.keptPairs = len(al.Pairs)
		if len(al.Pairs) < 2 { // core.Options.MinPairs' default floor
			al = &match.Alignment{NX: len(q.Values), NY: len(c.Values)}
			out.fellBack = true
		}
		id = rec.begin("band.Build", parent, op)
		b, err = ws.builder.Build(al, rd.bandCfg)
		rec.end(id)
		if err != nil {
			return out, err
		}
	}
	out.bandCells = b.Cells()
	id := rec.begin("dtw.BandedAbandonWS", parent, op)
	d, cells, abandoned, err := dtw.BandedAbandonWS(q.Values, c.Values, b, nil, budget, &ws.dp)
	rec.end(id)
	out.dist, out.cells, out.abandoned = d, cells, abandoned
	return out, err
}

// bestK mirrors the cascade's best-so-far heap: a max-heap on
// (distance, position), so the root is the current k-th best.
type bestK []retrieve.Neighbor

func (h bestK) Len() int { return len(h) }
func (h bestK) Less(a, b int) bool {
	if h[a].Distance != h[b].Distance {
		return h[a].Distance > h[b].Distance
	}
	return h[a].Pos > h[b].Pos
}
func (h bestK) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *bestK) Push(x any)   { *h = append(*h, x.(retrieve.Neighbor)) }
func (h *bestK) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

func sortNeighbors(out []retrieve.Neighbor) {
	sort.Slice(out, func(a, b int) bool {
		if out[a].Distance != out[b].Distance {
			return out[a].Distance < out[b].Distance
		}
		return out[a].Pos < out[b].Pos
	})
}

// replayTotals are the band and abandonment facts summed over a replay.
type replayTotals struct {
	keoghCalls, keoghAbandoned int
	bandCells, gridCells       int
	fellBack, evaluated        int
}

// search replays one top-k query through the exported layer functions
// in cascade order — sketch.Means, lower.Kim and sketch.LBPAA over every
// candidate, the ordering sort, then per survivor lower.KeoghUnder,
// (features, match.Match, band.Builder.Build for the engine backend)
// and dtw.BandedAbandonWS under the running k-th-best budget — which is
// retrieve.Core.search at one worker, written against the layers
// instead of the index.
func (rd *replayData) search(rec *recorder, op int, q sdtw.Series, k int, ws *pairScratch, tot *replayTotals) ([]retrieve.Neighbor, retrieve.Stats, error) {
	var stats retrieve.Stats
	root := rec.begin("retrieve.search", -1, op)
	defer rec.end(root)

	id := rec.begin("sketch.Means", root, op)
	qmean, err := sketch.Means(q.Values, sdtw.DefaultSketchWidth, nil)
	rec.end(id)
	if err != nil {
		return nil, stats, err
	}
	type candidate struct {
		pos        int
		bound, kim float64
		paa        bool
	}
	cands := make([]candidate, 0, len(rd.coll))
	for i, s := range rd.coll {
		if s.ID != "" && s.ID == q.ID {
			continue
		}
		stats.GridCells += len(q.Values) * len(s.Values)
		cands = append(cands, candidate{pos: i})
	}
	stats.Candidates = len(cands)
	id = rec.begin("lower.Kim", root, op)
	for n := range cands {
		kim, err := lower.Kim(q.Values, rd.coll[cands[n].pos].Values, nil)
		if err != nil {
			return nil, stats, err
		}
		cands[n].kim, cands[n].bound = kim, kim
	}
	rec.end(id)
	id = rec.begin("sketch.LBPAA", root, op)
	for n := range cands {
		if m := len(rd.coll[cands[n].pos].Values); m == len(q.Values) {
			cands[n].bound = sketch.LBPAA(qmean, rd.sketches[cands[n].pos], m)
			cands[n].paa = true
		}
	}
	rec.end(id)
	id = rec.begin("retrieve.sort", root, op)
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].bound != cands[b].bound {
			return cands[a].bound < cands[b].bound
		}
		return cands[a].pos < cands[b].pos
	})
	rec.end(id)
	if k > len(cands) {
		k = len(cands)
	}

	best := make(bestK, 0, k+1)
	threshold := math.Inf(1)
	for _, cd := range cands {
		if cd.paa && cd.bound > threshold {
			stats.PrunedSketch++
			continue
		}
		if cd.kim > threshold {
			stats.PrunedKim++
			continue
		}
		c := rd.coll[cd.pos]
		if env := rd.envs[cd.pos]; len(env.Upper) == len(q.Values) {
			id := rec.begin("lower.KeoghUnder", root, op)
			kg, kgAbandoned, err := lower.KeoghUnder(q.Values, env, threshold, nil)
			rec.end(id)
			if err != nil {
				return nil, stats, err
			}
			tot.keoghCalls++
			if kgAbandoned {
				tot.keoghAbandoned++
			}
			if kgAbandoned || kg > threshold {
				stats.PrunedKeogh++
				continue
			}
		}
		po, err := rd.distance(rec, root, op, q, c, threshold, ws)
		if err != nil {
			return nil, stats, err
		}
		stats.Evaluated++
		stats.Cells += po.cells
		tot.evaluated++
		tot.bandCells += po.bandCells
		tot.gridCells += po.gridCells
		if po.fellBack {
			tot.fellBack++
		}
		if po.abandoned {
			stats.AbandonedDTW++
			stats.CellsSaved += po.bandCells - po.cells
			continue
		}
		nb := retrieve.Neighbor{Pos: cd.pos, Distance: po.dist}
		if len(best) < k {
			heap.Push(&best, nb)
		} else if w := best[0]; nb.Distance < w.Distance || (nb.Distance == w.Distance && nb.Pos < w.Pos) {
			best[0] = nb
			heap.Fix(&best, 0)
		}
		if len(best) == k && best[0].Distance < threshold {
			threshold = best[0].Distance
		}
	}
	out := []retrieve.Neighbor(best)
	sortNeighbors(out)
	return out, stats, nil
}

// bruteForce is the reference answer: the backend distance to every
// candidate with no bound, no ordering and no abandonment.
func (rd *replayData) bruteForce(q sdtw.Series, k int, ws *pairScratch) ([]retrieve.Neighbor, error) {
	all := make([]retrieve.Neighbor, 0, len(rd.coll))
	for i, c := range rd.coll {
		if c.ID != "" && c.ID == q.ID {
			continue
		}
		po, err := rd.distance(nil, -1, 0, q, c, math.Inf(1), ws)
		if err != nil {
			return nil, err
		}
		all = append(all, retrieve.Neighbor{Pos: i, Distance: po.dist})
	}
	sortNeighbors(all)
	if k > len(all) {
		k = len(all)
	}
	return all[:k], nil
}

func sameNeighbors(a, b []retrieve.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Pos != b[i].Pos || math.Float64bits(a[i].Distance) != math.Float64bits(b[i].Distance) {
			return false
		}
	}
	return true
}

// checkBruteForce is the untimed correctness check of the k-NN
// workloads: a sample of queries spread over the query list must come
// back from Index.Search exactly as brute force ranks them — same
// series, same float64 bits.
func (sp knnSpec) checkBruteForce(inst *knnInstance, rd *replayData, res *runResult) {
	n := sp.checkQueries
	if n > len(inst.queries) {
		n = len(inst.queries)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < clients(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ws pairScratch
			for i := range next {
				q := inst.queries[i*len(inst.queries)/n]
				got, _, err := inst.ix.Search(context.Background(), q, sdtw.WithK(knnK), sdtw.WithWorkers(1))
				var want []retrieve.Neighbor
				if err == nil {
					want, err = rd.bruteForce(q, knnK, &ws)
				}
				mu.Lock()
				res.Attempted++
				if err != nil {
					res.fail(1, "query %q: %v", q.ID, err)
				} else if !sameNeighbors(got, want) {
					res.fail(1, "query %q: Search %v != brute force %v", q.ID, got, want)
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// sameCounts compares the stage counts of two searches (the times
// differ by construction).
func sameCounts(a, b retrieve.Stats) bool {
	return a.Candidates == b.Candidates && a.PrunedSketch == b.PrunedSketch &&
		a.PrunedKim == b.PrunedKim && a.PrunedKeogh == b.PrunedKeogh &&
		a.Evaluated == b.Evaluated && a.AbandonedDTW == b.AbandonedDTW &&
		a.CellsSaved == b.CellsSaved && a.Cells == b.Cells && a.GridCells == b.GridCells
}

// traced is the attribution run of a k-NN workload.
func (sp knnSpec) traced(cfg runConfig, inst *knnInstance, res *runResult) error {
	m := res.Metrics
	measureMachine(m)
	rd := sp.replayData(inst)
	m.set("lower.envelope_us_per_series", float64(rd.envelopeTime.Microseconds())/float64(len(inst.coll)))

	nq := sp.replayQueries
	if nq > len(inst.queries) {
		nq = len(inst.queries)
	}
	queries := inst.queries[:nq]
	ctx := context.Background()
	// Warm-up: cache the queries' features (the engine keys them by ID on
	// first use) and run one search, so the three passes below start from
	// the same state.
	if rd.engine != nil {
		for _, q := range queries {
			if _, err := rd.engine.Features(q); err != nil {
				return err
			}
		}
	}
	if _, _, err := inst.ix.Search(ctx, queries[0], sdtw.WithK(knnK), sdtw.WithWorkers(1)); err != nil {
		return err
	}
	runtime.GC()
	before := sampleProcess()

	// Pass 1: the index itself. Its SearchStats are the retrieve.* rows.
	var agg retrieve.Stats
	got := make([][]retrieve.Neighbor, nq)
	gotStats := make([]retrieve.Stats, nq)
	lat := make([]float64, nq)
	searchStart := time.Now()
	for i, q := range queries {
		t0 := time.Now()
		nb, st, err := inst.ix.Search(ctx, q, sdtw.WithK(knnK), sdtw.WithWorkers(1))
		if err != nil {
			return err
		}
		lat[i] = float64(time.Since(t0)) / 1e6
		got[i], gotStats[i] = nb, st
		agg.Merge(st)
	}
	searchWall := time.Since(searchStart)

	// Pass 2 and 3: the replay, untraced then traced.
	var ws pairScratch
	replay := func(rec *recorder) (time.Duration, replayTotals, error) {
		var tot replayTotals
		start := time.Now()
		for i, q := range queries {
			nb, st, err := rd.search(rec, i, q, knnK, &ws, &tot)
			if err != nil {
				return 0, tot, err
			}
			res.Attempted++
			if !sameNeighbors(nb, got[i]) {
				res.fail(1, "replay of %q: %v != Index.Search %v", q.ID, nb, got[i])
			} else if !sameCounts(st, gotStats[i]) {
				res.fail(1, "replay of %q: stage counts %v != Index.Search %v", q.ID, st, gotStats[i])
			}
		}
		return time.Since(start), tot, nil
	}
	untracedWall, _, err := replay(nil)
	if err != nil {
		return err
	}
	rec := newRecorder()
	tracedWall, tot, err := replay(rec)
	if err != nil {
		return err
	}
	after := sampleProcess()
	setProcessMetrics(m, before, after, 3*nq)
	res.Spans = rec.totals()

	fq := float64(nq)
	sorted := sortedCopy(lat)
	m.setN("user.search_p50_ms", percentile(sorted, 50), nq)
	m.setN("user.search_p90_ms", percentile(sorted, 90), nq)
	m.set("user.search_qps", fq/searchWall.Seconds())
	cands := float64(agg.Candidates)
	m.set("retrieve.candidates_per_query", cands/fq)
	m.set("retrieve.pruned_sketch_share", ratio(float64(agg.PrunedSketch), cands))
	m.set("retrieve.pruned_kim_share", ratio(float64(agg.PrunedKim), cands))
	m.set("retrieve.pruned_keogh_share", ratio(float64(agg.PrunedKeogh), cands))
	m.set("retrieve.evaluated_share", ratio(float64(agg.Evaluated), cands))
	m.set("retrieve.abandoned_share", agg.AbandonRate())
	m.set("retrieve.cells_gain", agg.CellsGain())
	m.set("retrieve.cells_per_query", float64(agg.Cells)/fq)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 / fq }
	m.set("retrieve.bound_ms_per_query", ms(agg.BoundTime))
	m.set("retrieve.match_ms_per_query", ms(agg.MatchTime))
	m.set("retrieve.dp_ms_per_query", ms(agg.DPTime))
	m.set("retrieve.self_ms_per_query", ms(searchWall-agg.BoundTime-agg.MatchTime-agg.DPTime))

	spans := res.Spans
	m.set("sketch.means_us_per_query", ratio(float64(spans["sketch.Means"].Total)/1e3, fq))
	m.set("sketch.lbpaa_ns_per_candidate", ratio(float64(spans["sketch.LBPAA"].Total), cands))
	m.set("lower.kim_ns_per_candidate", ratio(float64(spans["lower.Kim"].Total), cands))
	m.set("lower.keogh_ns_per_candidate", ratio(float64(spans["lower.KeoghUnder"].Total), float64(tot.keoghCalls)))
	m.set("lower.keogh_abandon_share", ratio(float64(tot.keoghAbandoned), float64(tot.keoghCalls)))
	m.set("match.us_per_pair", ratio(float64(spans["match.Match"].Total)/1e3, float64(spans["match.Match"].Count)))
	m.set("band.build_us_per_pair", ratio(float64(spans["band.Build"].Total)/1e3, float64(spans["band.Build"].Count)))
	m.set("band.cells_share", ratio(float64(tot.bandCells), float64(tot.gridCells)))
	if !sp.windowed {
		m.set("band.fallback_share", ratio(float64(tot.fellBack), float64(tot.evaluated)))
	}
	dpNS := float64(spans["dtw.BandedAbandonWS"].Total)
	m.set("dtw.ns_per_cell", ratio(dpNS, float64(agg.Cells)))
	m.set("dtw.cells_per_s", ratio(float64(agg.Cells), dpNS/1e9))
	m.set("dtw.abandon_cells_share", ratio(float64(agg.CellsSaved), float64(tot.bandCells)))
	m.set("trace.spans", float64(rec.count()))
	m.set("trace.coverage", ratio(tracedWall.Seconds(), searchWall.Seconds()))
	m.set("trace.overhead_share", ratio((tracedWall-untracedWall).Seconds(), untracedWall.Seconds()))
	if cfg.traceOut != "" {
		if err := rec.writeJSON(cfg.traceOut); err != nil {
			return err
		}
	}

	if err := sp.probeLayers(inst, rd, m); err != nil {
		return err
	}
	if !sp.windowed && sp.qualityQueries > 0 {
		if err := sp.quality(inst, rd, m); err != nil {
			return err
		}
	}
	m.set("user.failed_share", ratio(float64(res.Failed), float64(res.Attempted)))
	return nil
}

// probeLayers times single calls into the layers that the cascade
// either never makes per query (feature extraction, envelopes, the COW
// clone) or whose quality is a ratio of two calls (bound tightness), on
// a fixed sample of the workload's own series and pairs.
func (sp knnSpec) probeLayers(inst *knnInstance, rd *replayData, m *metricSet) error {
	sample := make([]sdtw.Series, 0, 64)
	for i := 0; i < 64 && i < len(inst.coll); i++ {
		sample = append(sample, inst.coll[i*len(inst.coll)/64%len(inst.coll)])
	}
	if !sp.windowed {
		fcfg := sift.DefaultConfig()
		fcfg.ScaleSpace = scalespace.Config{}
		var feats int
		start := time.Now()
		for _, s := range sample {
			f, err := sift.Extract(s.Values, fcfg)
			if err != nil {
				return err
			}
			feats += len(f)
		}
		n := float64(len(sample))
		m.set("sift.extract_us_per_series", float64(time.Since(start).Microseconds())/n)
		m.set("sift.features_per_series", float64(feats)/n)
		start = time.Now()
		for _, s := range sample {
			if _, err := scalespace.Build(s.Values, fcfg.ScaleSpace); err != nil {
				return err
			}
		}
		m.set("scalespace.build_us_per_series", float64(time.Since(start).Microseconds())/n)
		start = time.Now()
		if err := sdtw.NewEngine(sdtw.DefaultOptions()).Warm(sample); err != nil {
			return err
		}
		m.set("core.warm_us_per_series", float64(time.Since(start).Microseconds())/n)
	}

	// Sampled pairs: the first probe queries against candidates spread
	// over the collection.
	var ws pairScratch
	var dominant, kept, pairs int
	var keoghTight, paaTight []float64
	var pairWall, extractT, matchT, dpT time.Duration
	nq := 4
	if nq > len(inst.queries) {
		nq = len(inst.queries)
	}
	for _, q := range inst.queries[:nq] {
		qmean, err := sketch.Means(q.Values, sdtw.DefaultSketchWidth, nil)
		if err != nil {
			return err
		}
		for j := 0; j < sp.probeCandidates; j++ {
			pos := j * len(inst.coll) / sp.probeCandidates
			c := inst.coll[pos]
			po, err := rd.distance(nil, -1, 0, q, c, math.Inf(1), &ws)
			if err != nil {
				return err
			}
			pairs++
			if len(rd.envs[pos].Upper) == len(q.Values) && po.dist > 0 {
				kg, err := lower.Keogh(q.Values, rd.envs[pos], nil)
				if err != nil {
					return err
				}
				keoghTight = append(keoghTight, kg/po.dist)
				if kg > 0 {
					paaTight = append(paaTight, sketch.LBPAA(qmean, rd.sketches[pos], len(q.Values))/kg)
				}
			}
			if rd.engine == nil {
				continue
			}
			fx, err := rd.engine.Features(q)
			if err != nil {
				return err
			}
			fy, err := rd.engine.Features(c)
			if err != nil {
				return err
			}
			dominant += len(match.DominantPairs(fx, fy, rd.matchCfg))
			kept += po.keptPairs
			start := time.Now()
			cr, err := rd.engine.DistanceUnderSeries(q, c, math.Inf(1))
			if err != nil {
				return err
			}
			pairWall += time.Since(start)
			extractT += cr.ExtractTime
			matchT += cr.MatchTime
			dpT += cr.DPTime
		}
	}
	m.set("lower.keogh_tightness", mean(keoghTight))
	m.set("sketch.tightness", mean(paaTight))
	if rd.engine != nil {
		n := float64(pairs)
		m.set("match.dominant_pairs_per_pair", float64(dominant)/n)
		m.set("match.kept_pairs_per_pair", float64(kept)/n)
		m.set("match.kept_share", ratio(float64(kept), float64(dominant)))
		m.set("core.pair_us", float64(pairWall.Microseconds())/n)
		m.set("core.extract_share", ratio(extractT.Seconds(), pairWall.Seconds()))
		m.set("core.match_share", ratio(matchT.Seconds(), pairWall.Seconds()))
		m.set("core.dp_share", ratio(dpT.Seconds(), pairWall.Seconds()))
	}
	if sp.windowed {
		return probeClone(inst.coll, inst.queries, sp, m)
	}
	return nil
}

// probeClone times the copy-on-write seam of the serving layer on this
// collection: retrieve.Core.CloneAdd and CloneRemove of held-out series
// over the windowed backend, whose cost is the O(n) slice copies.
func probeClone(coll, queries []sdtw.Series, sp knnSpec, m *metricSet) error {
	backend, _, err := retrieve.NewWindowedBackend(sp.length, sp.radius)
	if err != nil {
		return err
	}
	core, err := retrieve.New(backend, coll, 1, true)
	if err != nil {
		return err
	}
	if err := core.EnableSketches(sdtw.DefaultSketchWidth); err != nil {
		return err
	}
	n := 16
	if n > len(queries) {
		n = len(queries)
	}
	var addT, removeT time.Duration
	for _, q := range queries[:n] {
		start := time.Now()
		nc, err := core.CloneAdd(q)
		if err != nil {
			return err
		}
		addT += time.Since(start)
		start = time.Now()
		if _, _, err := nc.CloneRemove(q.ID); err != nil {
			return err
		}
		removeT += time.Since(start)
	}
	m.set("retrieve.clone_add_us", float64(addT.Microseconds())/float64(n))
	m.set("retrieve.clone_remove_us", float64(removeT.Microseconds())/float64(n))
	return nil
}

// quality computes the paper's two quality measures against the naive
// full-matrix DTW on a fixed prefix of the queries: acc_ret(5), the
// overlap of the sDTW top-5 with the DTW top-5, and err_dist, the mean
// relative distance error over each query's returned and true top-5.
func (sp knnSpec) quality(inst *knnInstance, rd *replayData, m *metricSet) error {
	nq := sp.qualityQueries
	if nq > len(inst.queries) {
		nq = len(inst.queries)
	}
	var overlap, errSum float64
	var errN int
	for _, q := range inst.queries[:nq] {
		got, _, err := inst.ix.Search(context.Background(), q, sdtw.WithK(knnK), sdtw.WithWorkers(1))
		if err != nil {
			return err
		}
		truth := naiveScan(q, inst.coll)
		ranked := make([]retrieve.Neighbor, len(truth))
		for i, d := range truth {
			ranked[i] = retrieve.Neighbor{Pos: i, Distance: d}
		}
		sortNeighbors(ranked)
		top := ranked
		if len(top) > knnK {
			top = top[:knnK]
		}
		pairs := map[int]bool{}
		for _, nb := range top {
			pairs[nb.Pos] = true
		}
		var hit int
		for _, nb := range got {
			if pairs[nb.Pos] {
				hit++
			}
			pairs[nb.Pos] = true
		}
		overlap += float64(hit) / float64(len(top))
		var ws pairScratch
		for pos := range pairs {
			if truth[pos] == 0 {
				continue
			}
			po, err := rd.distance(nil, -1, 0, q, inst.coll[pos], math.Inf(1), &ws)
			if err != nil {
				return err
			}
			errSum += (po.dist - truth[pos]) / truth[pos]
			errN++
		}
	}
	m.setN("user.acc_ret_at_5", overlap/float64(nq), nq)
	m.setN("user.err_dist", ratio(errSum, float64(errN)), errN)
	return nil
}

// naiveScan is the naive DTW of q against every series, spread over the
// machine's clients.
func naiveScan(q sdtw.Series, coll []sdtw.Series) []float64 {
	out := make([]float64, len(coll))
	var wg sync.WaitGroup
	w := clients()
	for p := 0; p < w; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var mat []float64
			for i := p; i < len(coll); i += w {
				if need := (len(q.Values) + 1) * (len(coll[i].Values) + 1); len(mat) < need {
					mat = make([]float64, need)
				}
				out[i] = naiveDTW(q.Values, coll[i].Values, mat)
			}
		}(p)
	}
	wg.Wait()
	return out
}
