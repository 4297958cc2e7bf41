package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"sdtw"
	"sdtw/internal/core"
	"sdtw/internal/lower"
	"sdtw/internal/retrieve"
	"sdtw/internal/serve"
	"sdtw/internal/sift"
)

// serveSpec sizes the served workload.
type serveSpec struct {
	perClass, hold int // Gun has two classes; the held-out half/half feed searches and adds
	length, shards int
	tail           float64
	warmSearches   int
	checkQueries   int
	tracedOps      int // operations per client in each traced-run pass
}

func serveSpecFor(smoke bool) serveSpec {
	if smoke {
		return serveSpec{perClass: 40, hold: 30, length: 150, shards: 4, tail: 75, warmSearches: 4, checkQueries: 4, tracedOps: 20}
	}
	return serveSpec{perClass: 500, hold: 500, length: 150, shards: 4, tail: 95, warmSearches: 48, checkQueries: 16, tracedOps: 100}
}

const (
	classSearch = iota
	classAdd
	classRemove
)

// serveInstance is one set-up service: a store-backed sharded index
// behind the HTTP handler on a loopback test server.
type serveInstance struct {
	coll, queries, pool []sdtw.Series // collection, search queries, series to add
	ix                  *sdtw.ShardedIndex
	server              *httptest.Server
	client              *http.Client
	cleanup             func()
}

func (inst *serveInstance) close() {
	inst.client.CloseIdleConnections()
	inst.server.Close()
	inst.ix.CloseStore()
	inst.cleanup()
}

func (sp serveSpec) setup(cfg runConfig) (*serveInstance, error) {
	coll, held, err := labeled("Gun", sp.perClass, sp.hold, sp.length, cfg.seed)
	if err != nil {
		return nil, err
	}
	inst := &serveInstance{coll: coll, queries: held[:len(held)/2], pool: held[len(held)/2:]}
	built, err := sdtw.NewShardedIndex(coll, sp.shards, sdtw.DefaultOptions())
	if err != nil {
		return nil, err
	}
	dir, cleanup, err := cfg.scratchDir("serve")
	if err != nil {
		return nil, err
	}
	inst.cleanup = cleanup
	if err := built.SaveStore(dir + "/store"); err != nil {
		cleanup()
		return nil, err
	}
	inst.ix, err = sdtw.OpenShardedIndex(dir+"/store", sdtw.DefaultOptions())
	if err != nil {
		cleanup()
		return nil, err
	}
	// sdtwd's defaults, except k: every search asks for its 5 nearest.
	inst.server = httptest.NewServer(serve.New(inst.ix, serve.Config{}).Handler())
	inst.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients()}}
	return inst, nil
}

// serveOp is one operation of a client's seeded sequence.
type serveOp struct {
	class  int
	series sdtw.Series // the query, or the series to add or remove
}

// opStream deals one client's operations: 80% searches cycling through
// the client's share of the queries, 10% adds from its share of the
// pool, 10% removes of its own earlier adds (an add when none is
// outstanding). Clients never touch each other's IDs, so no operation
// can fail on a race.
type opStream struct {
	rng            *rand.Rand
	inst           *serveInstance
	client         int
	nextQ, nextAdd int
	outstanding    []sdtw.Series
	removed        []sdtw.Series
}

func newOpStream(inst *serveInstance, seed int64, client int) *opStream {
	return &opStream{rng: rand.New(rand.NewSource(seed*1000 + int64(client))), inst: inst, client: client}
}

func (o *opStream) next() serveOp {
	c := clients()
	u := o.rng.Float64()
	addIdx := o.client + o.nextAdd*c
	switch {
	case u >= 0.9 && len(o.outstanding) > 0:
		k := o.rng.Intn(len(o.outstanding))
		s := o.outstanding[k]
		o.outstanding = append(o.outstanding[:k], o.outstanding[k+1:]...)
		o.removed = append(o.removed, s)
		return serveOp{classRemove, s}
	case u >= 0.8 && addIdx < len(o.inst.pool):
		s := o.inst.pool[addIdx]
		o.nextAdd++
		o.outstanding = append(o.outstanding, s)
		return serveOp{classAdd, s}
	default:
		q := o.inst.queries[(o.client+o.nextQ*c)%len(o.inst.queries)]
		o.nextQ++
		return serveOp{classSearch, q}
	}
}

// httpDo sends one operation over HTTP and returns the request and
// response sizes, the client-side encode time, and the decoded hits of a
// search.
func (inst *serveInstance) httpDo(op serveOp) (reqBytes, respBytes int, encode time.Duration, hits []serve.HitJSON, err error) {
	var path string
	var body any
	switch op.class {
	case classSearch:
		path, body = "/v1/search", serve.SearchRequest{ID: op.series.ID, Values: op.series.Values, K: knnK}
	case classAdd:
		path, body = "/v1/add", serve.AddRequest{ID: op.series.ID, Label: op.series.Label, Values: op.series.Values}
	default:
		path, body = "/v1/remove", serve.RemoveRequest{ID: op.series.ID}
	}
	t0 := time.Now()
	data, err := json.Marshal(body)
	encode = time.Since(t0)
	if err != nil {
		return 0, 0, encode, nil, err
	}
	resp, err := inst.client.Post(inst.server.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return len(data), 0, encode, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return len(data), 0, encode, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return len(data), len(reply), encode, nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(reply))
	}
	if op.class == classSearch {
		var sr serve.SearchResponse
		if err := json.Unmarshal(reply, &sr); err != nil {
			return len(data), len(reply), encode, nil, err
		}
		hits = sr.Hits
	}
	return len(data), len(reply), encode, hits, nil
}

// direct applies one operation to the index itself.
func (inst *serveInstance) direct(op serveOp) ([]sdtw.Hit, error) {
	switch op.class {
	case classSearch:
		hits, _, err := inst.ix.Search(context.Background(), op.series, sdtw.WithK(knnK))
		return hits, err
	case classAdd:
		return nil, inst.ix.Add(op.series)
	default:
		return nil, inst.ix.Remove(op.series.ID)
	}
}

func (inst *serveInstance) warm(n int) error {
	for i := 0; i < n; i++ {
		q := inst.queries[len(inst.queries)-1-i%len(inst.queries)]
		if _, err := inst.direct(serveOp{classSearch, q}); err != nil {
			return err
		}
	}
	return nil
}

func runServe(cfg runConfig) (*runResult, error) {
	sp := serveSpecFor(cfg.smoke)
	res := &runResult{Workload: "serve-mixed", Seed: cfg.seed, Trace: cfg.trace, Correct: true, Metrics: newMetricSet()}
	inst, setupS, err := medianSetup(cfg.setupRepeats(), func() (*serveInstance, error) { return sp.setup(cfg) }, (*serveInstance).close)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	ih := newInputHash()
	ih.series(inst.coll)
	ih.series(inst.queries)
	ih.series(inst.pool)
	res.Inputs = ih.sum()
	if cfg.trace {
		return res, sp.traced(cfg, inst, res)
	}

	// Warm-up fills the shard engines' read-through feature caches: a
	// store-backed index extracts a series' features the first time a
	// search evaluates it, a lazy set-up cost no steady-state user pays.
	if err := inst.warm(sp.warmSearches); err != nil {
		return nil, err
	}
	streams := make([]*opStream, clients())
	for c := range streams {
		streams[c] = newOpStream(inst, cfg.seed, c)
	}
	runtime.GC()
	before := sampleProcess()
	loop := closedLoop(clients(), time.Duration(cfg.seconds*float64(time.Second)), func(c, i int) (int, error) {
		op := streams[c].next()
		_, _, _, hits, err := inst.httpDo(op)
		if err == nil && op.class == classSearch && len(hits) != knnK {
			err = fmt.Errorf("search returned %d hits, want %d", len(hits), knnK)
		}
		return op.class, err
	})
	after := sampleProcess()
	searches := loop.byClass(classSearch)
	ops := len(loop.samples)
	res.Attempted = ops + loop.failed
	res.Failed = loop.failed
	for _, e := range loop.errs {
		res.note("operation failed: %v", e)
	}
	setEndToEnd(res, setupS, searches, sp.tail, ops, ops, loop.wall, before, after)
	res.note("op latency is the HTTP search round trip (%d searches, %d adds, %d removes); throughput counts all three",
		len(searches), len(loop.byClass(classAdd)), len(loop.byClass(classRemove)))
	sp.check(inst, streams, res)
	return res, nil
}

func sameHits(h []serve.HitJSON, d []sdtw.Hit) bool {
	if len(h) != len(d) {
		return false
	}
	for i := range h {
		if h[i].ID != d[i].ID || math.Float64bits(h[i].Distance) != math.Float64bits(d[i].Distance) {
			return false
		}
	}
	return true
}

// check is the served workload's correctness check, on the quiescent
// final state: sampled HTTP searches equal direct searches hit for hit
// and bit for bit; the collection holds exactly the initial series plus
// the surviving adds; every surviving add is found by a search for its
// own values; every removed ID is refused as unknown.
func (sp serveSpec) check(inst *serveInstance, streams []*opStream, res *runResult) {
	for i := 0; i < sp.checkQueries; i++ {
		q := inst.queries[i*len(inst.queries)/sp.checkQueries]
		op := serveOp{classSearch, q}
		res.Attempted++
		_, _, _, hits, err := inst.httpDo(op)
		var want []sdtw.Hit
		if err == nil {
			want, err = inst.direct(op)
		}
		if err != nil {
			res.fail(1, "check search %d: %v", i, err)
		} else if !sameHits(hits, want) {
			res.fail(1, "check search %d: HTTP %v != direct %v", i, hits, want)
		}
	}
	wantLen := len(inst.coll)
	for _, o := range streams {
		wantLen += len(o.outstanding)
		for i, s := range o.outstanding {
			if i >= sp.checkQueries {
				break
			}
			res.Attempted++
			hits, err := inst.direct(serveOp{classSearch, sdtw.Series{ID: "probe-" + s.ID, Values: s.Values}})
			if err != nil || len(hits) == 0 || hits[0].ID != s.ID {
				res.fail(1, "acknowledged add %q is not its own nearest neighbour (%v, %v)", s.ID, hits, err)
			}
		}
		for _, s := range o.removed {
			res.Attempted++
			if _, _, _, _, err := inst.httpDo(serveOp{classRemove, s}); err == nil {
				res.fail(1, "removed ID %q could be removed again", s.ID)
			}
		}
	}
	res.Attempted++
	if got := inst.ix.Len(); got != wantLen {
		res.fail(1, "index holds %d series, want %d", got, wantLen)
	}
}

// fixedPass runs tracedOps operations per client of the seeded
// sequences through do, and returns the latencies by class with the
// wall.
func (sp serveSpec) fixedPass(inst *serveInstance, seed int64, do func(client int, op serveOp) error) ([3][]float64, time.Duration, []*opStream, error) {
	var lat [3][]float64
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	streams := make([]*opStream, clients())
	start := time.Now()
	for c := range streams {
		streams[c] = newOpStream(inst, seed, c)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine [3][]float64
			for i := 0; i < sp.tracedOps; i++ {
				op := streams[c].next()
				t0 := time.Now()
				if err := do(c, op); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				mine[op.class] = append(mine[op.class], float64(time.Since(t0))/1e6)
			}
			mu.Lock()
			for k := range lat {
				lat[k] = append(lat[k], mine[k]...)
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return lat, time.Since(start), streams, firstErr
}

// traced is the attribution run of the served workload: the same fixed
// operation sequences three times on fresh identical services — over
// HTTP, directly on the ShardedIndex, and directly with a span around
// every call. *inst is replaced in place by each fresh service; the
// caller closes the last one.
func (sp serveSpec) traced(cfg runConfig, inst *serveInstance, res *runResult) error {
	m := res.Metrics
	measureMachine(m)
	fresh := func() error {
		inst.close()
		next, err := sp.setup(cfg)
		if err != nil {
			return err
		}
		*inst = *next
		return inst.warm(sp.warmSearches)
	}
	if err := inst.warm(sp.warmSearches); err != nil {
		return err
	}

	// Pass 1: HTTP.
	var reqB, respB, encUS []float64
	var mu sync.Mutex
	httpLat, httpWall, _, err := sp.fixedPass(inst, cfg.seed, func(c int, op serveOp) error {
		rb, pb, enc, _, err := inst.httpDo(op)
		if op.class == classSearch {
			mu.Lock()
			reqB, respB = append(reqB, float64(rb)), append(respB, float64(pb))
			mu.Unlock()
		}
		mu.Lock()
		encUS = append(encUS, float64(enc)/1e3)
		mu.Unlock()
		return err
	})
	if err != nil {
		return err
	}
	statsStart := time.Now()
	const statsCalls = 10
	for i := 0; i < statsCalls; i++ {
		resp, err := inst.client.Get(inst.server.URL + "/v1/stats")
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	statsMS := float64(time.Since(statsStart)) / 1e6 / statsCalls
	var stats serve.StatsResponse
	if resp, err := inst.client.Get(inst.server.URL + "/v1/stats"); err == nil {
		json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
	}

	// Pass 2: direct, untraced.
	if err := fresh(); err != nil {
		return err
	}
	directLat, directWall, _, err := sp.fixedPass(inst, cfg.seed, func(c int, op serveOp) error {
		_, err := inst.direct(op)
		return err
	})
	if err != nil {
		return err
	}

	// Pass 3: direct, traced.
	if err := fresh(); err != nil {
		return err
	}
	names := [3]string{"shard.Search", "shard.Add", "shard.Remove"}
	rec := newRecorder()
	runtime.GC()
	before := sampleProcess()
	tracedLat, tracedWall, streams, err := sp.fixedPass(inst, cfg.seed, func(c int, op serveOp) error {
		id := rec.begin(names[op.class], -1, c)
		_, err := inst.direct(op)
		rec.end(id)
		return err
	})
	if err != nil {
		return err
	}
	after := sampleProcess()
	ops := clients() * sp.tracedOps
	setProcessMetrics(m, before, after, ops)
	res.Spans = rec.totals()
	res.Attempted = 3 * ops
	sp.check(inst, streams, res)

	searchSorted := sortedCopy(httpLat[classSearch])
	writes := sortedCopy(append(append([]float64(nil), httpLat[classAdd]...), httpLat[classRemove]...))
	m.setN("user.search_p50_ms", percentile(searchSorted, 50), len(searchSorted))
	m.setN("user.search_p90_ms", percentile(searchSorted, 90), len(searchSorted))
	m.set("user.search_qps", float64(len(searchSorted))/httpWall.Seconds())
	m.setN("user.write_p50_ms", percentile(writes, 50), len(writes))
	m.setN("user.write_p90_ms", percentile(writes, 90), len(writes))
	m.set("serve.http_overhead_p50_ms", percentile(searchSorted, 50)-median(directLat[classSearch]))
	m.set("serve.request_bytes_p50", median(reqB))
	m.set("serve.response_bytes_p50", median(respB))
	m.set("serve.rejected_share", ratio(float64(stats.Rejected), float64(stats.Searches+stats.Rejected)))
	m.set("serve.client_encode_us", mean(encUS))
	m.set("serve.stats_ms", statsMS)
	m.setN("shard.add_p50_ms", median(tracedLat[classAdd]), len(tracedLat[classAdd]))
	m.setN("shard.remove_p50_ms", median(tracedLat[classRemove]), len(tracedLat[classRemove]))
	m.set("trace.spans", float64(rec.count()))
	m.set("trace.coverage", ratio(tracedWall.Seconds(), httpWall.Seconds()))
	m.set("trace.overhead_share", ratio((tracedWall-directWall).Seconds(), directWall.Seconds()))
	if cfg.traceOut != "" {
		if err := rec.writeJSON(cfg.traceOut); err != nil {
			return err
		}
	}

	// Quiescent comparisons: the sharded fan-out against a flat index
	// over the same series, same queries, one at a time.
	sizes := inst.ix.ShardSizes()
	var maxSize, total int
	for _, n := range sizes {
		total += n
		if n > maxSize {
			maxSize = n
		}
	}
	m.set("shard.skew", ratio(float64(maxSize), float64(total)/float64(len(sizes))))
	flat, err := sdtw.NewIndex(inst.coll, sdtw.DefaultOptions())
	if err != nil {
		return err
	}
	nq := 2 * sp.checkQueries
	var shardLat, flatLat []float64
	for pass := 0; pass < 2; pass++ { // the first pass warms the flat index's query path
		shardLat, flatLat = shardLat[:0], flatLat[:0]
		for i := 0; i < nq; i++ {
			q := inst.queries[i%len(inst.queries)]
			t0 := time.Now()
			if _, _, err := inst.ix.Search(context.Background(), q, sdtw.WithK(knnK)); err != nil {
				return err
			}
			shardLat = append(shardLat, float64(time.Since(t0))/1e6)
			t0 = time.Now()
			if _, _, err := flat.Search(context.Background(), q, sdtw.WithK(knnK)); err != nil {
				return err
			}
			flatLat = append(flatLat, float64(time.Since(t0))/1e6)
		}
	}
	m.setN("shard.search_p50_ms", median(shardLat), nq)
	m.setN("shard.flat_search_p50_ms", median(flatLat), nq)
	m.set("shard.fanout_overhead_ms", median(shardLat)-median(flatLat))

	if err := sp.probeWritePath(cfg, inst, m); err != nil {
		return err
	}
	m.set("user.failed_share", ratio(float64(res.Failed), float64(res.Attempted)))
	return nil
}

// probeWritePath times what one served Add pays below the shard layer,
// one exported call at a time on the pool's series: feature extraction,
// the envelope, the copy-on-write clone of a shard-sized core, and the
// store append; and what a Remove pays: the clone and a synced
// tombstone.
func (sp serveSpec) probeWritePath(cfg runConfig, inst *serveInstance, m *metricSet) error {
	n := 32
	if n > len(inst.pool) {
		n = len(inst.pool)
	}
	sample := inst.pool[len(inst.pool)-n:]
	fcfg := sift.DefaultConfig()
	var feats int
	start := time.Now()
	for _, s := range sample {
		f, err := sift.Extract(s.Values, fcfg)
		if err != nil {
			return err
		}
		feats += len(f)
	}
	m.set("sift.extract_us_per_series", float64(time.Since(start).Microseconds())/float64(n))
	m.set("sift.features_per_series", float64(feats)/float64(n))
	backend := retrieve.NewEngineBackend(core.NewEngine(core.DefaultOptions()), "benchmark", false)
	start = time.Now()
	for _, s := range sample {
		lower.NewEnvelope(s.Values, backend.EnvelopeRadius(len(s.Values)))
	}
	m.set("lower.envelope_us_per_series", float64(time.Since(start).Microseconds())/float64(n))

	part := inst.coll[:len(inst.coll)/sp.shards]
	rc, err := retrieve.New(backend, part, 1, true)
	if err != nil {
		return err
	}
	if err := rc.EnableSketches(sdtw.DefaultSketchWidth); err != nil {
		return err
	}
	// CloneAdd drops any cached features of the series and extracts them
	// again, as a served Add does, so clone_add_us contains an extraction.
	var addT, removeT time.Duration
	for _, s := range sample {
		t0 := time.Now()
		nc, err := rc.CloneAdd(s)
		if err != nil {
			return err
		}
		addT += time.Since(t0)
		t0 = time.Now()
		if _, _, err := nc.CloneRemove(s.ID); err != nil {
			return err
		}
		removeT += time.Since(t0)
	}
	m.set("retrieve.clone_add_us", float64(addT.Microseconds())/float64(n))
	m.set("retrieve.clone_remove_us", float64(removeT.Microseconds())/float64(n))
	return probeStoreWrites(cfg, sample, backend.EnvelopeRadius(sp.length), m)
}
