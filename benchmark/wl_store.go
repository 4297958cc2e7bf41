package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sdtw"
	"sdtw/internal/lower"
	"sdtw/internal/retrieve"
	"sdtw/internal/sketch"
	"sdtw/internal/store"
	"sdtw/internal/vfs"
)

// storeSpec sizes the restart workload: the knn-bounds collection on
// disk, and the shape of one restart cycle.
type storeSpec struct {
	perClass, hold, length, radius int
	searches, adds                 int // per cycle: first-touch searches, then adds
	keepEvery                      int // every keepEvery-th add survives its cycle's removes
	tail                           float64
	checkQueries                   int
	tracedCycles                   int
}

func storeSpecFor(smoke bool) storeSpec {
	if smoke {
		return storeSpec{perClass: 100, hold: 20, length: 64, radius: 3, searches: 4, adds: 8, keepEvery: 4, tail: 75, checkQueries: 4, tracedCycles: 1}
	}
	return storeSpec{perClass: 5000, hold: 600, length: 128, radius: 3, searches: 40, adds: 80, keepEvery: 4, tail: 90, checkQueries: 20, tracedCycles: 2}
}

const (
	classOpen = iota
	classFirstTouch
	classWrite
	classRemoveStore
)

// storeInstance is one set-up: the collection saved as a segment store.
type storeInstance struct {
	coll, queries, pool []sdtw.Series
	dir                 string
	cleanup             func()
}

func (sp storeSpec) setup(cfg runConfig) (*storeInstance, error) {
	coll, held, err := labeled("Trace", sp.perClass, sp.hold, sp.length, cfg.seed)
	if err != nil {
		return nil, err
	}
	inst := &storeInstance{coll: coll, queries: held[:len(held)/2], pool: held[len(held)/2:]}
	return inst, sp.save(cfg, inst)
}

// save writes the collection into a fresh store directory, replacing
// the instance's previous one.
func (sp storeSpec) save(cfg runConfig, inst *storeInstance) error {
	if inst.cleanup != nil {
		inst.cleanup()
	}
	ix, err := sdtw.NewWindowedIndex(inst.coll, sp.radius)
	if err != nil {
		return err
	}
	dir, cleanup, err := cfg.scratchDir("store")
	if err != nil {
		return err
	}
	inst.dir, inst.cleanup = filepath.Join(dir, "store"), cleanup
	if err := ix.SaveStore(inst.dir); err != nil {
		cleanup()
		return err
	}
	return nil
}

// restartLog is what a sequence of restart cycles did.
type restartLog struct {
	lat       map[int][]float64 // latencies in ms by class
	ops       int
	survivors []sdtw.Series
	cycles    int
}

func (l *restartLog) time(class int, f func() error) error {
	t0 := time.Now()
	if err := f(); err != nil {
		return err
	}
	l.lat[class] = append(l.lat[class], float64(time.Since(t0))/1e6)
	l.ops++
	return nil
}

// cycles runs restart cycles through the public API with one client —
// open, first-touch searches on the fresh open, Add+SyncStore each,
// Remove of all but every keepEvery-th add, close — until the deadline
// passes or maxCycles are done; then one more open compacts, closes and
// reopens, leaving the reopened index for the check.
func (sp storeSpec) cycles(inst *storeInstance, d time.Duration, maxCycles int) (*restartLog, *sdtw.Index, error) {
	log := &restartLog{lat: map[int][]float64{}}
	ctx := context.Background()
	var ix *sdtw.Index
	open := func() error {
		return log.time(classOpen, func() (err error) {
			ix, err = sdtw.OpenWindowedIndex(inst.dir)
			return err
		})
	}
	deadline := time.Now().Add(d)
	nextQ := 0
	// free is the queue of series available to add: the pool first, then
	// whatever earlier cycles removed again (survivors never return).
	free := append([]sdtw.Series(nil), inst.pool...)
	for log.cycles < maxCycles && (log.cycles == 0 || time.Now().Before(deadline)) {
		if err := open(); err != nil {
			return nil, nil, err
		}
		for i := 0; i < sp.searches; i++ {
			q := inst.queries[nextQ%len(inst.queries)]
			nextQ++
			if err := log.time(classFirstTouch, func() error {
				_, _, err := ix.Search(ctx, q, sdtw.WithK(knnK), sdtw.WithWorkers(1))
				return err
			}); err != nil {
				return nil, nil, err
			}
		}
		added := make([]sdtw.Series, 0, sp.adds)
		for i := 0; i < sp.adds && len(free) > 0; i++ {
			s := free[0]
			free = free[1:]
			if err := log.time(classWrite, func() error {
				if err := ix.Add(s); err != nil {
					return err
				}
				return ix.SyncStore()
			}); err != nil {
				return nil, nil, err
			}
			added = append(added, s)
		}
		for i, s := range added {
			if i%sp.keepEvery == 0 {
				log.survivors = append(log.survivors, s)
				continue
			}
			if err := log.time(classRemoveStore, func() error { return ix.Remove(s.ID) }); err != nil {
				return nil, nil, err
			}
			free = append(free, s)
		}
		if err := ix.CloseStore(); err != nil {
			return nil, nil, err
		}
		log.cycles++
	}
	if err := open(); err != nil {
		return nil, nil, err
	}
	if err := ix.Compact(); err != nil {
		return nil, nil, err
	}
	log.ops++
	if err := ix.CloseStore(); err != nil {
		return nil, nil, err
	}
	if err := open(); err != nil {
		return nil, nil, err
	}
	return log, ix, nil
}

func runStore(cfg runConfig) (*runResult, error) {
	sp := storeSpecFor(cfg.smoke)
	res := &runResult{Workload: "store-restart", Seed: cfg.seed, Trace: cfg.trace, Correct: true, Metrics: newMetricSet()}
	inst, setupS, err := medianSetup(cfg.setupRepeats(), func() (*storeInstance, error) { return sp.setup(cfg) },
		func(i *storeInstance) { i.cleanup() })
	if err != nil {
		return nil, err
	}
	defer func() { inst.cleanup() }()
	ih := newInputHash()
	ih.series(inst.coll)
	ih.series(inst.queries)
	ih.series(inst.pool)
	res.Inputs = ih.sum()
	if cfg.trace {
		return res, sp.traced(cfg, inst, res)
	}

	// No warm-up: a restart is cold by definition.
	runtime.GC()
	before := sampleProcess()
	start := time.Now()
	log, ix, err := sp.cycles(inst, time.Duration(cfg.seconds*float64(time.Second)), math.MaxInt)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	after := sampleProcess()
	res.Attempted = log.ops
	setEndToEnd(res, setupS, log.lat[classFirstTouch], sp.tail, log.ops, log.ops, wall, before, after)
	res.note("op latency is a first-touch search on a fresh open; throughput counts every operation of %d restart cycles (%d opens, %d searches, %d add+sync, %d removes, 1 compact)",
		log.cycles, len(log.lat[classOpen]), len(log.lat[classFirstTouch]), len(log.lat[classWrite]), len(log.lat[classRemoveStore]))
	sp.check(inst, log, ix, res)
	return res, ix.CloseStore()
}

// check is the restart workload's correctness check: after the final
// reopen the index holds exactly the collection plus the surviving
// adds, and its answers are bit-identical to an in-RAM windowed index
// over that same set.
func (sp storeSpec) check(inst *storeInstance, log *restartLog, ix *sdtw.Index, res *runResult) {
	want := append(append([]sdtw.Series(nil), inst.coll...), log.survivors...)
	res.Attempted++
	if ix.Len() != len(want) {
		res.fail(1, "reopened index holds %d series, want %d", ix.Len(), len(want))
		return
	}
	ram, err := sdtw.NewWindowedIndex(want, sp.radius)
	if err != nil {
		res.fail(1, "in-RAM reference: %v", err)
		return
	}
	type hit struct {
		id   string
		bits uint64
	}
	answer := func(x *sdtw.Index, q sdtw.Series) ([]hit, error) {
		nb, _, err := x.Search(context.Background(), q, sdtw.WithK(knnK), sdtw.WithWorkers(1))
		out := make([]hit, len(nb))
		for i, n := range nb {
			out[i] = hit{x.Series(n.Pos).ID, math.Float64bits(n.Distance)}
		}
		// Equal distances rank by position, which differs between the two
		// indexes; order ties by ID instead. (Non-negative float64s order
		// like their bit patterns.)
		sort.Slice(out, func(a, b int) bool {
			if out[a].bits != out[b].bits {
				return out[a].bits < out[b].bits
			}
			return out[a].id < out[b].id
		})
		return out, err
	}
	for i := 0; i < sp.checkQueries; i++ {
		q := inst.queries[i*len(inst.queries)/sp.checkQueries]
		res.Attempted++
		got, err := answer(ix, q)
		var ref []hit
		if err == nil {
			ref, err = answer(ram, q)
		}
		if err != nil {
			res.fail(1, "check search %q: %v", q.ID, err)
		} else if fmt.Sprint(got) != fmt.Sprint(ref) {
			res.fail(1, "check search %q: store %v != in-RAM %v", q.ID, got, ref)
		}
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// storeRecord builds the record the index layer appends for s.
func storeRecord(s sdtw.Series, seq uint64, radius int) (store.Record, error) {
	env := lower.NewEnvelope(s.Values, radius)
	sk, err := sketch.FromEnvelope(env, sdtw.DefaultSketchWidth)
	if err != nil {
		return store.Record{}, err
	}
	return store.Record{
		ID: s.ID, Label: s.Label, Seq: seq, N: len(s.Values),
		First: s.Values[0], Last: s.Values[len(s.Values)-1],
		Sketch: sk, Envelope: env, Values: s.Values,
	}, nil
}

// direct drives internal/store itself over a counting filesystem
// through the same restart cycles the public API ran: OpenWith, a cold
// retrieve core over the live records, first-touch searches, Append and
// Sync per add, Tombstone per remove, then Compact and a reopen. rec
// (nil for the untraced leg) gets a span per store call.
func (sp storeSpec) direct(inst *storeInstance, rec *recorder, m *metricSet) (time.Duration, error) {
	cfs := newCountingFS(vfs.OS())
	backend, _, err := retrieve.NewWindowedBackend(sp.length, sp.radius)
	if err != nil {
		return 0, err
	}
	var openNS, appendNS, syncNS, tombNS, loadNS, compactNS time.Duration
	var opens, records, appends, tombs, loads, searches int
	var st *store.Store
	timed := func(name string, total *time.Duration, f func() error) error {
		id := rec.begin(name, -1, -1)
		t0 := time.Now()
		err := f()
		*total += time.Since(t0)
		rec.end(id)
		return err
	}
	open := func() error {
		opens++
		return timed("store.OpenWith", &openNS, func() (err error) {
			st, err = store.OpenWith(inst.dir, store.OpenOptions{FS: cfs})
			return err
		})
	}
	params := retrieve.DefaultParams()
	params.K, params.Workers = knnK, 1
	start := time.Now()
	nextQ, nextAdd := 0, 0
	for c := 0; c < sp.tracedCycles; c++ {
		if err := open(); err != nil {
			return 0, err
		}
		live := st.Live()
		records += len(live)
		cold := make([]retrieve.ColdSeries, len(live))
		for i, r := range live {
			r := r
			cold[i] = retrieve.ColdSeries{
				ID: r.ID, Label: r.Label, N: r.N, First: r.First, Last: r.Last,
				Envelope: r.Envelope, Sketch: r.Sketch,
				Load: func() ([]float64, error) {
					id := rec.begin("store.LoadValues", -1, -1)
					t0 := time.Now()
					v, err := r.LoadValues()
					loadNS += time.Since(t0)
					loads++
					rec.end(id)
					return v, err
				},
			}
		}
		id := rec.begin("retrieve.RestoreCold", -1, -1)
		core, err := retrieve.RestoreCold(backend, cold, st.SketchWidth(), 1, true)
		rec.end(id)
		if err != nil {
			return 0, err
		}
		for i := 0; i < sp.searches; i++ {
			q := inst.queries[nextQ%len(inst.queries)]
			nextQ++
			searches++
			id := rec.begin("retrieve.Search", -1, -1)
			_, _, err := core.Search(context.Background(), q, params)
			rec.end(id)
			if err != nil {
				return 0, err
			}
		}
		type added struct {
			id  string
			seq uint64
		}
		var mine []added
		seq := st.NextSeq()
		for i := 0; i < sp.adds && nextAdd < len(inst.pool); i++ {
			s := inst.pool[nextAdd]
			nextAdd++
			r, err := storeRecord(s, seq, sp.radius)
			if err != nil {
				return 0, err
			}
			if err := timed("store.Append", &appendNS, func() error { return st.Append(r) }); err != nil {
				return 0, err
			}
			if err := timed("store.Sync", &syncNS, st.Sync); err != nil {
				return 0, err
			}
			mine = append(mine, added{s.ID, seq})
			appends++
			seq++
		}
		for i, a := range mine {
			if i%sp.keepEvery == 0 {
				continue
			}
			tombs++
			if err := timed("store.Tombstone", &tombNS, func() error { return st.Tombstone(a.id, a.seq) }); err != nil {
				return 0, err
			}
		}
		if err := st.Close(); err != nil {
			return 0, err
		}
	}
	if err := open(); err != nil {
		return 0, err
	}
	beforeCompact := cfs.counts()
	if err := timed("store.Compact", &compactNS, st.Compact); err != nil {
		return 0, err
	}
	rewritten := cfs.counts().sub(beforeCompact).WriteBytes
	segments := st.Stats().Segments
	if err := st.Close(); err != nil {
		return 0, err
	}
	if err := open(); err != nil {
		return 0, err
	}
	liveAfter := len(st.Live())
	records += liveAfter
	if err := st.Close(); err != nil {
		return 0, err
	}
	wall := time.Since(start)
	if m == nil {
		return wall, nil
	}
	if want := len(inst.coll) + appends - tombs; liveAfter != want {
		return 0, fmt.Errorf("store holds %d live records after the direct pass, want %d", liveAfter, want)
	}
	onDisk, err := dirBytes(inst.dir)
	if err != nil {
		return 0, err
	}
	us := func(d time.Duration, n int) float64 { return ratio(float64(d)/1e3, float64(n)) }
	m.set("store.open_ms", us(openNS, opens)/1e3)
	m.set("store.open_us_per_record", us(openNS, records))
	m.set("store.append_us", us(appendNS, appends))
	m.set("store.sync_ms", us(syncNS, appends)/1e3)
	m.set("store.tombstone_ms", us(tombNS, tombs)/1e3)
	m.set("store.load_values_us", us(loadNS, loads))
	m.set("store.cold_faults_per_query", ratio(float64(loads), float64(searches)))
	m.set("store.compact_ms", float64(compactNS)/1e6)
	m.set("store.compact_bytes_rewritten", float64(rewritten))
	m.set("store.segments", float64(segments))
	m.set("store.bytes_per_user_byte", ratio(float64(onDisk), float64(8*sp.length*liveAfter)))
	setVFSMetrics(m, cfs.counts(), 8*sp.length*appends)
	return wall, nil
}

// setVFSMetrics fills the vfs.* rows from a counting filesystem's totals;
// userBytes is the size of the values appended through it.
func setVFSMetrics(m *metricSet, fc fsCounts, userBytes int) {
	m.set("vfs.writes", float64(fc.Writes))
	m.set("vfs.write_bytes", float64(fc.WriteBytes))
	m.set("vfs.syncs", float64(fc.Syncs))
	m.set("vfs.sync_ms_total", float64(fc.SyncTime)/1e6)
	m.set("vfs.reads", float64(fc.Reads))
	m.set("vfs.read_bytes", float64(fc.ReadBytes))
	m.set("vfs.renames", float64(fc.Renames))
	m.set("vfs.write_bytes_per_user_byte", ratio(float64(fc.WriteBytes), float64(userBytes)))
}

// traced is the attribution run of the restart workload: a fixed number
// of cycles through the public API (the user.* rows), then the same
// cycles on fresh copies of the store driven through internal/store
// over the counting filesystem, untraced and traced.
func (sp storeSpec) traced(cfg runConfig, inst *storeInstance, res *runResult) error {
	m := res.Metrics
	measureMachine(m)
	start := time.Now()
	log, ix, err := sp.cycles(inst, time.Hour, sp.tracedCycles)
	if err != nil {
		return err
	}
	publicWall := time.Since(start)
	res.Attempted = log.ops
	sp.check(inst, log, ix, res)
	stats, err := ix.StoreStats()
	if err != nil {
		return err
	}
	if err := ix.CloseStore(); err != nil {
		return err
	}
	onDisk, err := dirBytes(inst.dir)
	if err != nil {
		return err
	}
	search := sortedCopy(log.lat[classFirstTouch])
	writes := sortedCopy(append(append([]float64(nil), log.lat[classWrite]...), log.lat[classRemoveStore]...))
	m.setN("user.search_p50_ms", percentile(search, 50), len(search))
	m.setN("user.search_p90_ms", percentile(search, 90), len(search))
	m.setN("user.write_p50_ms", percentile(writes, 50), len(writes))
	m.setN("user.write_p90_ms", percentile(writes, 90), len(writes))
	m.setN("user.open_ms", median(log.lat[classOpen]), len(log.lat[classOpen]))
	m.set("user.disk_bytes_per_user_byte", ratio(float64(onDisk), float64(8*sp.length*stats.LiveRecords)))

	if err := sp.save(cfg, inst); err != nil {
		return err
	}
	untracedWall, err := sp.direct(inst, nil, nil)
	if err != nil {
		return err
	}
	if err := sp.save(cfg, inst); err != nil {
		return err
	}
	runtime.GC()
	before := sampleProcess()
	rec := newRecorder()
	tracedWall, err := sp.direct(inst, rec, m)
	if err != nil {
		return err
	}
	after := sampleProcess()
	setProcessMetrics(m, before, after, log.ops)
	res.Spans = rec.totals()
	m.set("trace.spans", float64(rec.count()))
	m.set("trace.coverage", ratio(tracedWall.Seconds(), publicWall.Seconds()))
	m.set("trace.overhead_share", ratio((tracedWall-untracedWall).Seconds(), untracedWall.Seconds()))
	m.set("user.failed_share", ratio(float64(res.Failed), float64(res.Attempted)))
	if cfg.traceOut != "" {
		return rec.writeJSON(cfg.traceOut)
	}
	return nil
}

// probeStoreWrites times the store calls a served write reaches, on a
// scratch store over the counting filesystem: Append and Sync per
// series of sample, then a Tombstone for each.
func probeStoreWrites(cfg runConfig, sample []sdtw.Series, radius int, m *metricSet) error {
	dir, cleanup, err := cfg.scratchDir("probe")
	if err != nil {
		return err
	}
	defer cleanup()
	cfs := newCountingFS(vfs.OS())
	st, err := store.Create(filepath.Join(dir, "store"), store.Config{Fingerprint: "benchmark", SketchWidth: sdtw.DefaultSketchWidth, FS: cfs})
	if err != nil {
		return err
	}
	defer st.Close()
	var appendNS, syncNS, tombNS time.Duration
	for i, s := range sample {
		r, err := storeRecord(s, uint64(i), radius)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := st.Append(r); err != nil {
			return err
		}
		appendNS += time.Since(t0)
		t0 = time.Now()
		if err := st.Sync(); err != nil {
			return err
		}
		syncNS += time.Since(t0)
	}
	for i, s := range sample {
		t0 := time.Now()
		if err := st.Tombstone(s.ID, uint64(i)); err != nil {
			return err
		}
		tombNS += time.Since(t0)
	}
	n := float64(len(sample))
	m.set("store.append_us", float64(appendNS.Microseconds())/n)
	m.set("store.sync_ms", float64(syncNS)/1e6/n)
	m.set("store.tombstone_ms", float64(tombNS)/1e6/n)
	var userBytes int
	for _, s := range sample {
		userBytes += 8 * len(s.Values)
	}
	setVFSMetrics(m, cfs.counts(), userBytes)
	return nil
}
