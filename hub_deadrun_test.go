package sdtw

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"sdtw/internal/dtw"
)

// hubScriptQuery is one standing query of a scripted hub run. It is added
// once every stream has consumed addAt points and removed at removeAt
// (-1: kept to the end).
type hubScriptQuery struct {
	id               string
	values           []float64
	threshold        float64
	minGap           int
	addAt, removeAt  int
	refSkipped       []bool // per stream position: the query's own prefilter skips it
	refSkippedPoints int64
}

// hubScript is a deterministic hub run over equal-length streams.
type hubScript struct {
	queries []hubScriptQuery
	streams [][]float64
}

// hubScriptStats counts what one scripted run exercised.
type hubScriptStats struct {
	matches int
	// crossings counts batch boundaries inside a run of points every
	// registered query skips: dead runs that span two stolen chunks.
	crossings int
	// partial counts points some registered query skips and another
	// advances: dead for one query, not for the fleet.
	partial int
}

// end is the stream position q stops consuming at.
func (q *hubScriptQuery) end(length int) int {
	if q.removeAt < 0 {
		return length
	}
	return q.removeAt
}

// check drives the script through a hub and holds it to one
// single-query Monitor per (stream, query) pair, each fed the points
// from the query's addition to its removal (flushed only if the query
// stays to the end), positions offset back to the stream's. Queries are
// added and removed at phase boundaries, after every stream has consumed
// exactly the points before it; inside a phase each round pushes every
// stream one batch of rng-drawn size and waits until the hub has
// processed it, so each batch is one stolen chunk. Per-query Appends,
// Skipped and Matches of the queries left at the end must equal what
// their own prefiltered springs and monitors count.
func (sc *hubScript) check(t testing.TB, rng *rand.Rand) hubScriptStats {
	t.Helper()
	length := len(sc.streams[0])
	var st hubScriptStats
	for qi := range sc.queries {
		q := &sc.queries[qi]
		q.refSkipped = make([]bool, 0, len(sc.streams)*length)
		q.refSkippedPoints = 0
		for _, vals := range sc.streams {
			sp, err := dtw.NewSpring(q.values, dtw.SpringConfig{Threshold: q.threshold, MinGap: q.minGap, Prefilter: true})
			if err != nil {
				t.Fatal(err)
			}
			for pos, v := range vals {
				skipped := false
				if pos >= q.addAt && pos < q.end(length) {
					before := sp.Skipped()
					sp.AppendFiltered(v)
					skipped = sp.Skipped() > before
				}
				if skipped {
					q.refSkippedPoints++
				}
				q.refSkipped = append(q.refSkipped, skipped)
			}
		}
	}
	// deadFor reports whether every query registered at pos skips
	// stream s's point there, and whether some but not all do.
	deadFor := func(s, pos int) (all, some bool) {
		all, n := true, 0
		for qi := range sc.queries {
			q := &sc.queries[qi]
			if pos < q.addAt || pos >= q.end(length) {
				continue
			}
			n++
			if q.refSkipped[s*length+pos] {
				some = true
			} else {
				all = false
			}
		}
		return all && n > 0, some
	}

	h := NewHub(Options{}, WithHubWorkers(2), WithMatchBuffer(1<<16))
	runErr := make(chan error, 1)
	go func() { runErr <- h.Run(context.Background()) }()
	var got []hubMatchKey
	var collectWG sync.WaitGroup
	collectWG.Add(1)
	go hubCollect(h, &got, &collectWG)
	ids := make([]string, len(sc.streams))
	for s := range ids {
		ids[s] = fmt.Sprintf("s%d", s)
		if err := h.AddStream(ids[s]); err != nil {
			t.Fatal(err)
		}
	}
	bounds := []int{0, length}
	for _, q := range sc.queries {
		bounds = append(bounds, q.addAt)
		if q.removeAt >= 0 {
			bounds = append(bounds, q.removeAt)
		}
	}
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)
	var processed int64
	for bi, b := range bounds[:len(bounds)-1] {
		for _, q := range sc.queries {
			if q.removeAt == b {
				if err := h.RemoveQuery(q.id); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, q := range sc.queries {
			if q.addAt == b {
				err := h.AddQuery(q.id, NewSeries(q.id, 0, q.values), WithMatchThreshold(q.threshold), WithMinGap(q.minGap))
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		next := bounds[bi+1]
		for pos := b; pos < next; {
			n := min(1+rng.Intn(24), next-pos)
			for s, vals := range sc.streams {
				if pos > 0 {
					if all, _ := deadFor(s, pos-1); all {
						if all, _ := deadFor(s, pos); all {
							st.crossings++
						}
					}
				}
				if err := h.PushBatch(ids[s], vals[pos:pos+n]); err != nil {
					t.Fatal(err)
				}
			}
			pos += n
			processed += int64(n * len(sc.streams))
			deadline := time.Now().Add(10 * time.Second)
			for h.Stats().Processed < processed {
				if time.Now().After(deadline) {
					t.Fatalf("timed out waiting for %d processed points", processed)
				}
				time.Sleep(20 * time.Microsecond)
			}
		}
	}
	for s := range sc.streams {
		for pos := 0; pos < length; pos++ {
			if all, some := deadFor(s, pos); some && !all {
				st.partial++
			}
		}
	}
	if err := h.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	collectWG.Wait()
	if err := <-runErr; err != nil {
		t.Fatalf("Run: %v", err)
	}

	var want []hubMatchKey
	perQuery := map[string]int64{}
	for s, vals := range sc.streams {
		for _, q := range sc.queries {
			m, err := NewMonitor([]Series{NewSeries(q.id, 0, q.values)}, Options{},
				WithMatchThreshold(q.threshold), WithMinGap(q.minGap))
			if err != nil {
				t.Fatal(err)
			}
			emit, err := m.PushBatch(context.Background(), vals[q.addAt:q.end(length)])
			if err != nil {
				t.Fatal(err)
			}
			if q.removeAt < 0 {
				fin, err := m.Flush()
				if err != nil {
					t.Fatal(err)
				}
				emit = append(emit, fin...)
			}
			for _, mm := range emit {
				want = append(want, hubMatchKey{ids[s], q.id, mm.Start + q.addAt, mm.End + q.addAt, math.Float64bits(mm.Distance)})
			}
			perQuery[q.id] += int64(len(emit))
		}
	}
	sortHubKeys(got)
	sortHubKeys(want)
	if len(got) != len(want) {
		t.Fatalf("hub emitted %d matches, monitors %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("emission %d diverged: hub %+v, monitor %+v", i, got[i], want[i])
		}
	}
	st.matches = len(got)

	for _, qs := range h.Stats().PerQuery {
		qi := slices.IndexFunc(sc.queries, func(q hubScriptQuery) bool { return q.id == qs.ID })
		if qi < 0 {
			t.Fatalf("stats list unknown query %q", qs.ID)
		}
		q := &sc.queries[qi]
		points := int64(len(sc.streams) * (length - q.addAt))
		if qs.Appends+qs.Skipped != points || qs.Skipped != q.refSkippedPoints || qs.Matches != perQuery[q.id] {
			t.Fatalf("query %s: appends %d, skipped %d, matches %d; want %d points, %d skipped, %d matches",
				q.id, qs.Appends, qs.Skipped, qs.Matches, points, q.refSkippedPoints, perQuery[q.id])
		}
	}
	return st
}

// randomHubScript draws a script: three or four queries of their own
// thresholds and gaps (so the fleet's threshold is a max over unequal
// ones), one of them added mid-stream and one removed mid-stream, over
// streams mixing in-band noise, planted query copies, dead runs above
// and below the band, near excursions only the tighter queries skip,
// and the odd ±Inf or NaN point.
func randomHubScript(rng *rand.Rand) *hubScript {
	thresholds := []float64{0.05, 0.3, 1.5, 6}
	rng.Shuffle(len(thresholds), func(i, j int) { thresholds[i], thresholds[j] = thresholds[j], thresholds[i] })
	nq := 3 + rng.Intn(2)
	length := 300 + rng.Intn(300)
	sc := &hubScript{}
	for qi := 0; qi < nq; qi++ {
		vals := make([]float64, 2+rng.Intn(9))
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		q := hubScriptQuery{
			id: fmt.Sprintf("q%d", qi), values: vals, threshold: thresholds[qi],
			minGap: rng.Intn(4) * rng.Intn(8), removeAt: -1,
		}
		switch qi {
		case 1:
			q.removeAt = 1 + rng.Intn(length-1)
		case 2:
			q.addAt = 1 + rng.Intn(length-1)
		}
		sc.queries = append(sc.queries, q)
	}
	for s := 0; s < 3; s++ {
		vals := make([]float64, 0, length+64)
		for len(vals) < length {
			switch c := rng.Intn(10); {
			case c == 0:
				for _, v := range sc.queries[rng.Intn(nq)].values {
					vals = append(vals, v+0.05*rng.NormFloat64())
				}
			case c < 4:
				for i := rng.Intn(20); i >= 0; i-- {
					vals = append(vals, rng.NormFloat64())
				}
			case c < 8:
				level := 40.0
				if c%2 == 0 {
					level = -40
				}
				for i := rng.Intn(60); i >= 0; i-- {
					vals = append(vals, level+rng.Float64())
				}
			case c == 8:
				for i := rng.Intn(6); i >= 0; i-- {
					vals = append(vals, 4+rng.Float64()*3)
				}
			default:
				vals = append(vals, []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)])
			}
		}
		sc.streams = append(sc.streams, vals[:length])
	}
	return sc
}

// TestHubDeadRunsMatchMonitors holds the hub's dead-run path to the
// per-point Monitor: over random scripts (unequal thresholds, queries
// added and removed mid-stream, dead runs crossing chunk boundaries),
// emissions and per-query counts are bit-identical. The floors keep it
// from passing vacuously.
func TestHubDeadRunsMatchMonitors(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var total hubScriptStats
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		st := randomHubScript(rng).check(t, rng)
		total.matches += st.matches
		total.crossings += st.crossings
		total.partial += st.partial
	}
	t.Logf("%+v", total)
	if total.matches == 0 || total.crossings == 0 || total.partial == 0 {
		t.Fatalf("a case never occurred: %+v", total)
	}
}

// hubScriptFromBytes decodes a fuzz input into a script. The first byte
// sizes the query set and the schedule; each query takes a length, a
// threshold, a gap and its values; the rest is the streams, one byte per
// event: an in-band point, a dead run above or below the band, a near
// excursion, or a non-finite point.
func hubScriptFromBytes(data []byte) *hubScript {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	head := next()
	nq := 1 + int(head%4)
	ns := 1 + int(head>>2%3)
	thresholds := []float64{0, 0.05, 0.25, 1, 4, 12}
	sc := &hubScript{}
	for qi := 0; qi < nq; qi++ {
		b := next()
		vals := make([]float64, 1+int(b%8))
		for i := range vals {
			vals[i] = float64(next()%32) / 8
		}
		sc.queries = append(sc.queries, hubScriptQuery{
			id: fmt.Sprintf("q%d", qi), values: vals,
			threshold: thresholds[int(b>>3)%len(thresholds)],
			minGap:    int(next() % 6), removeAt: -1,
		})
	}
	var events []byte
	for len(data) > 0 {
		events = append(events, next())
	}
	streams := make([][]float64, ns)
	for i, b := range events {
		s := i % ns
		switch b >> 5 {
		case 0, 1, 2:
			streams[s] = append(streams[s], float64(b%32)/8)
		case 3, 4:
			for k := 0; k <= int(b%16); k++ {
				streams[s] = append(streams[s], 40+float64(b%3))
			}
		case 5:
			for k := 0; k <= int(b%16); k++ {
				streams[s] = append(streams[s], -40-float64(b%3))
			}
		case 6:
			streams[s] = append(streams[s], 4+float64(b%32)/8)
		default:
			streams[s] = append(streams[s], []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e300}[b%4])
		}
	}
	length := len(streams[0])
	for _, vals := range streams {
		length = min(length, len(vals))
	}
	if length < 2 {
		return nil
	}
	for s := range streams {
		sc.streams = append(sc.streams, streams[s][:length])
	}
	if nq >= 2 && head&0x20 != 0 {
		sc.queries[1].removeAt = 1 + int(head)%(length-1)
	}
	if nq >= 3 && head&0x40 != 0 {
		sc.queries[2].addAt = 1 + int(head>>1)%(length-1)
	}
	return sc
}

// FuzzHubDeadRunDifferential holds the hub's emissions and per-query
// counts to per-(stream, query) Monitors over fuzzed scripts (see
// hubScript.check). go test runs the seed corpus.
func FuzzHubDeadRunDifferential(f *testing.F) {
	f.Add([]byte{0x62, 0x0a, 0, 8, 16, 8, 0, 3, 0x21, 8, 8, 1, 0x70, 0, 8, 16, 8, 0, 0x6f, 0x6f, 0xa3, 0, 8, 16, 8, 0xe1, 0x71, 0, 8, 16, 8, 0, 0xc4})
	f.Add([]byte{0x01, 0x12, 0, 16, 0, 2, 0x33, 4, 2, 0, 8, 16, 8, 0, 0x7f, 0x7f, 0x7f, 0xbf, 0, 8, 16, 8, 0, 0, 8, 16, 8})
	f.Add([]byte{0x47, 0x09, 3, 5, 0, 0x1a, 1, 1, 0x28, 0, 2, 1, 0x03, 31, 31, 31, 0, 3, 5, 0x6a, 0x6a, 0xe0, 0xe2, 0xd0, 3, 5, 0x81, 1, 1, 0xf3, 0x7c, 31, 31, 31})
	f.Add([]byte("dead runs cross every chunk boundary: ~~~~~~~~ at 40, then ____ in band"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := hubScriptFromBytes(data)
		if sc == nil {
			return
		}
		sc.check(t, rand.New(rand.NewSource(int64(len(data)))))
	})
}
