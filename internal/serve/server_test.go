package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sdtw"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *sdtw.Dataset) {
	t.Helper()
	d := sdtw.GunDataset(sdtw.DatasetConfig{Seed: 11, SeriesPerClass: 8})
	ix, err := sdtw.NewShardedIndex(d.Series, 3, sdtw.Options{
		Strategy:  sdtw.FixedCoreFixedWidth,
		WidthFrac: 0.10,
	})
	if err != nil {
		t.Fatalf("NewShardedIndex: %v", err)
	}
	return New(ix, cfg), d
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, buf.Bytes()
}

func TestEndpoints(t *testing.T) {
	srv, d := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()

	// Search: explicit k, and a worker count far above GOMAXPROCS (clamped,
	// not refused).
	q := d.Series[0]
	resp, body := postJSON(t, c, ts.URL+"/v1/search", SearchRequest{ID: q.ID, Values: q.Values, K: 3, Workers: 1 << 20})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: status %d: %s", resp.StatusCode, body)
	}
	var sr SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(sr.Hits) != 3 {
		t.Fatalf("k=3 search returned %d hits", len(sr.Hits))
	}
	for _, h := range sr.Hits {
		if h.ID == q.ID {
			t.Fatalf("self-exclusion failed: query %q in hits", q.ID)
		}
	}
	if sr.Stats.Candidates == 0 || sr.Stats.WallMS < 0 {
		t.Fatalf("implausible stats: %+v", sr.Stats)
	}

	// Search: no k and no threshold means the server default (1).
	resp, body = postJSON(t, c, ts.URL+"/v1/search", SearchRequest{Values: q.Values})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default-k search: status %d: %s", resp.StatusCode, body)
	}
	sr = SearchResponse{}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(sr.Hits) != 1 {
		t.Fatalf("default search returned %d hits, want 1", len(sr.Hits))
	}

	// Search: an explicit threshold of 0 is honoured (exact matches only),
	// not mistaken for "unset" — the zero-value trap the server-side
	// DefaultParams/ThresholdSet plumbing exists to avoid.
	zero := 0.0
	resp, body = postJSON(t, c, ts.URL+"/v1/search", SearchRequest{Values: q.Values, Threshold: &zero})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("threshold-0 search: status %d: %s", resp.StatusCode, body)
	}
	sr = SearchResponse{}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for _, h := range sr.Hits {
		if h.Distance > 0 {
			t.Fatalf("threshold 0 returned distance %v", h.Distance)
		}
	}

	// Add, search for it, remove it.
	nv := append([]float64(nil), q.Values...)
	resp, body = postJSON(t, c, ts.URL+"/v1/add", AddRequest{ID: "fresh", Label: 9, Values: nv})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add: status %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, c, ts.URL+"/v1/search", SearchRequest{ID: q.ID, Values: q.Values, K: 1})
	sr = SearchResponse{}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.StatusCode != http.StatusOK || len(sr.Hits) != 1 || sr.Hits[0].ID != "fresh" {
		t.Fatalf("added duplicate not nearest: %d %+v", resp.StatusCode, sr.Hits)
	}
	resp, body = postJSON(t, c, ts.URL+"/v1/remove", RemoveRequest{ID: "fresh"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove: status %d: %s", resp.StatusCode, body)
	}

	// Stats.
	resp, err := c.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	resp.Body.Close()
	if st.Series != len(d.Series) || st.Shards != 3 || st.Adds != 1 || st.Removes != 1 || st.Searches != 4 {
		t.Fatalf("stats: %+v", st)
	}
	total := 0
	for _, n := range st.ShardSizes {
		total += n
	}
	if total != st.Series {
		t.Fatalf("shard sizes %v do not sum to %d", st.ShardSizes, st.Series)
	}

	// Healthz.
	resp, err = c.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
}

func TestErrorMapping(t *testing.T) {
	srv, d := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()
	q := d.Series[0]

	cases := []struct {
		name   string
		path   string
		body   any
		status int
	}{
		{"remove unknown", "/v1/remove", RemoveRequest{ID: "nope"}, http.StatusNotFound},
		{"remove empty id", "/v1/remove", RemoveRequest{}, http.StatusBadRequest},
		{"add duplicate", "/v1/add", AddRequest{ID: d.Series[1].ID, Values: q.Values}, http.StatusConflict},
		{"add empty id", "/v1/add", AddRequest{Values: q.Values}, http.StatusBadRequest},
		{"add empty values", "/v1/add", AddRequest{ID: "x"}, http.StatusBadRequest},
		{"search empty query", "/v1/search", SearchRequest{K: 1}, http.StatusBadRequest},
		{"search negative k", "/v1/search", SearchRequest{Values: q.Values, K: -2}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, c, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q not {\"error\":...}", tc.name, body)
		}
	}

	// Malformed JSON.
	resp, err := c.Post(ts.URL+"/v1/search", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatalf("malformed: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}

	// Wrong method.
	resp, err = c.Get(ts.URL + "/v1/search")
	if err != nil {
		t.Fatalf("GET search: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/search: status %d, want 405", resp.StatusCode)
	}
}

// TestSearchHitsWireFormat pins the bytes of a search reply's hits: the
// keys id, label, distance, in that order and no others (the library's
// result type also carries a position, which must not leak onto the
// wire), with the values a flat index over the same collection reports.
func TestSearchHitsWireFormat(t *testing.T) {
	srv, d := newTestServer(t, Config{})
	flat, err := sdtw.NewIndex(d.Series, sdtw.Options{Strategy: sdtw.FixedCoreFixedWidth, WidthFrac: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	q := d.Series[0]
	nbrs, _, err := flat.Search(context.Background(), q, sdtw.WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	want.WriteByte('[')
	for i, nb := range nbrs {
		if i > 0 {
			want.WriteByte(',')
		}
		dist, err := json.Marshal(nb.Distance)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&want, `{"id":%q,"label":%d,"distance":%s}`, nb.ID, nb.Label, dist)
	}
	want.WriteByte(']')

	b, err := json.Marshal(SearchRequest{ID: q.ID, Values: q.Values, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(b)))
	if rec.Code != http.StatusOK {
		t.Fatalf("search: status %d: %s", rec.Code, rec.Body)
	}
	var reply struct {
		Hits json.RawMessage `json:"hits"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reply.Hits, want.Bytes()) {
		t.Fatalf("hits on the wire:\n%s\nwant:\n%s", reply.Hits, want.Bytes())
	}
}

// TestBackpressure saturates the in-flight slots and the wait queue by
// holding the admission semaphore directly, then checks the server sheds
// the overflow with 429 instead of buffering without bound.
func TestBackpressure(t *testing.T) {
	srv, d := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	q := d.Series[0]

	srv.sem <- struct{}{} // the one in-flight slot is now busy

	// One search fits in the queue; it blocks until the slot frees.
	queued := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/search", SearchRequest{Values: q.Values, K: 1})
		queued <- resp.StatusCode
	}()
	waitFor(t, func() bool { return srv.waiting.Load() == 1 }, "search to queue")

	// The next search overflows the queue: immediate 429.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/search", SearchRequest{Values: q.Values, K: 1})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow search: status %d, want 429 (%s)", resp.StatusCode, body)
	}
	if srv.rejected.Load() != 1 {
		t.Fatalf("rejected counter = %d, want 1", srv.rejected.Load())
	}

	// Freeing the slot lets the queued search run to completion.
	<-srv.sem
	select {
	case code := <-queued:
		if code != http.StatusOK {
			t.Fatalf("queued search: status %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued search never completed")
	}
}

// unreadBody fails the test if the handler reads any of it.
type unreadBody struct{ t *testing.T }

func (b *unreadBody) Read(p []byte) (int, error) {
	b.t.Error("the body of a search that was going to be refused was read")
	return 0, io.EOF
}

func (b *unreadBody) Close() error { return nil }

// TestOverloadRefusedBeforeDecode: with every in-flight slot taken and
// the wait queue full, a search is answered 429 and counted without a
// byte of its body being read — a saturated server used to decode up to
// 8 MiB of JSON first. With room in the queue the body is decoded, and
// the search holds no in-flight slot while it is.
func TestOverloadRefusedBeforeDecode(t *testing.T) {
	srv, d := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 1})
	h := srv.Handler()
	srv.sem <- struct{}{} // the one in-flight slot is busy
	srv.waiting.Add(1)    // and the one queue place is taken

	body := &unreadBody{t: t}
	req := httptest.NewRequest(http.MethodPost, "/v1/search", body)
	req.ContentLength = maxBodyBytes - 1 // claims a body just under the cap
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated search: status %d, want 429 (%s)", rec.Code, rec.Body)
	}
	if got := srv.rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	if got := srv.waiting.Load(); got != 1 {
		t.Fatalf("refusal moved the queue count to %d", got)
	}

	// Free the queue place (the slot stays busy): the next search decodes
	// its body before it queues, so while the body is still arriving it is
	// neither in flight nor waiting.
	srv.waiting.Add(-1)
	pr, pw := io.Pipe()
	done := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", pr))
		done <- rec.Code
	}()
	b, err := json.Marshal(SearchRequest{Values: d.Series[0].Values, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pw.Write(b[:len(b)/2]); err != nil { // returns once the decoder has consumed it
		t.Fatal(err)
	}
	if len(srv.sem) != 1 || srv.waiting.Load() != 0 {
		t.Fatalf("half-sent body holds admission state: inflight %d queued %d", len(srv.sem), srv.waiting.Load())
	}
	if _, err := pw.Write(b[len(b)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	waitFor(t, func() bool { return srv.waiting.Load() == 1 }, "decoded search to queue")
	<-srv.sem // free the slot
	if code := <-done; code != http.StatusOK {
		t.Fatalf("queued search: status %d, want 200", code)
	}
	if got := srv.rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d after an admitted search, want 1", got)
	}
}

// TestDrainCompletesInflight is the graceful-drain acceptance test: with
// a search admitted and another queued, cancelling the run context (what
// SIGTERM does in cmd/sdtwd) must close the listener and flip /healthz,
// yet both searches complete with full results before Run returns — and
// no goroutines leak.
func TestDrainCompletesInflight(t *testing.T) {
	defer checkNoLeaks(t, runtime.NumGoroutine())

	srv, d := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 2})
	q := d.Series[0]

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(ctx, "127.0.0.1:0", 30*time.Second, ready) }()
	base := "http://" + <-ready

	srv.sem <- struct{}{} // pin the slot so the next search queues

	searchDone := make(chan SearchResponse, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, body := postJSON(t, http.DefaultClient, base+"/v1/search", SearchRequest{Values: q.Values, K: 2})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("in-flight search: status %d (%s)", resp.StatusCode, body)
			searchDone <- SearchResponse{}
			return
		}
		var sr SearchResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Errorf("decode: %v", err)
		}
		searchDone <- sr
	}()
	waitFor(t, func() bool { return srv.waiting.Load() == 1 }, "search to queue")

	cancel() // SIGTERM

	// The drain is underway: Run must NOT return while a search is queued.
	waitFor(t, func() bool { return srv.Draining() }, "drain to start")
	select {
	case err := <-runDone:
		t.Fatalf("Run returned %v with a search still in flight", err)
	case <-time.After(200 * time.Millisecond):
	}

	// Release the slot: the queued search runs to completion and the
	// drain finishes cleanly.
	<-srv.sem
	wg.Wait()
	sr := <-searchDone
	if len(sr.Hits) != 2 {
		t.Fatalf("drained search returned %d hits, want 2", len(sr.Hits))
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after the last search drained")
	}
}

// TestDrainDeadlineCancelsDP pins the hard stop: when in-flight work
// outlives the drain timeout, CancelInflight cancels it through the
// request context (the same cancellation the DP polls), the request
// answers 503, and Run reports the incomplete drain.
func TestDrainDeadlineCancelsDP(t *testing.T) {
	defer checkNoLeaks(t, runtime.NumGoroutine())

	srv, d := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 2})
	q := d.Series[0]

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(ctx, "127.0.0.1:0", 100*time.Millisecond, ready) }()
	base := "http://" + <-ready

	srv.sem <- struct{}{} // never released: the queued search can only end by cancellation
	codes := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, http.DefaultClient, base+"/v1/search", SearchRequest{Values: q.Values, K: 1})
		codes <- resp.StatusCode
	}()
	waitFor(t, func() bool { return srv.waiting.Load() == 1 }, "search to queue")

	cancel()
	select {
	case code := <-codes:
		if code != http.StatusServiceUnavailable {
			t.Fatalf("cancelled search: status %d, want 503", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued search not cancelled by the drain deadline")
	}
	select {
	case err := <-runDone:
		if err == nil {
			t.Fatal("Run returned nil after an incomplete drain")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return")
	}
	<-srv.sem
}

func TestHealthzFlipsWhileDraining(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	srv.StartDrain()
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: got %v %v, want 503", resp.StatusCode, err)
	}
	resp.Body.Close()
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkNoLeaks fails the test if the goroutine count does not settle
// back to its starting value — the zero-leak half of the drain
// acceptance criteria. HTTP client keep-alive goroutines wind down
// asynchronously, so it polls before judging.
func checkNoLeaks(t *testing.T, before int) {
	t.Helper()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	var n int
	for {
		n = runtime.NumGoroutine()
		if n <= before {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutine leak after drain: %d -> %d\n%s", before, n, buf[:runtime.Stack(buf, true)])
}

// TestStatusFor pins the sentinel-to-HTTP mapping.
func TestStatusFor(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{sdtw.ErrUnknownID, http.StatusNotFound},
		{sdtw.ErrDuplicateID, http.StatusConflict},
		{sdtw.ErrNoID, http.StatusBadRequest},
		{sdtw.ErrEmptySeries, http.StatusBadRequest},
		{sdtw.ErrBadK, http.StatusBadRequest},
		{sdtw.ErrLengthMismatch, http.StatusBadRequest},
		{fmt.Errorf("sdtw: Add: series %q: NaN at index 3: %w", "x", sdtw.ErrNonFinite), http.StatusBadRequest},
		{context.Canceled, http.StatusServiceUnavailable},
		{context.DeadlineExceeded, http.StatusServiceUnavailable},
		{fmt.Errorf("wrapped: %w", sdtw.ErrUnknownID), http.StatusNotFound},
		{fmt.Errorf("anything else"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := statusFor(tc.err); got != tc.want {
			t.Errorf("statusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestStoreEndpoints: a store-backed index reports its segment shape in
// /v1/stats, compacts over /v1/compact, and an in-RAM index answers 409
// to compaction requests.
func TestStoreEndpoints(t *testing.T) {
	d := sdtw.GunDataset(sdtw.DatasetConfig{Seed: 13, SeriesPerClass: 6})
	opts := sdtw.Options{Strategy: sdtw.FixedCoreFixedWidth, WidthFrac: 0.10}
	ram, err := sdtw.NewShardedIndex(d.Series, 3, opts)
	if err != nil {
		t.Fatalf("NewShardedIndex: %v", err)
	}
	dir := t.TempDir() + "/store"
	if err := ram.SaveStore(dir); err != nil {
		t.Fatalf("SaveStore: %v", err)
	}
	ix, err := sdtw.OpenShardedIndex(dir, opts)
	if err != nil {
		t.Fatalf("OpenShardedIndex: %v", err)
	}
	defer ix.CloseStore()

	srv := New(ix, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()

	// Tombstone one series so compaction has work to do.
	resp, body := postJSON(t, c, ts.URL+"/v1/remove", RemoveRequest{ID: d.Series[0].ID})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove: status %d: %s", resp.StatusCode, body)
	}

	resp, body = postJSON(t, c, ts.URL+"/v1/search", SearchRequest{Values: d.Series[1].Values, K: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: status %d: %s", resp.StatusCode, body)
	}
	var sr SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("search response: %v", err)
	}
	if got := sr.Stats.PrunedSketch + sr.Stats.PrunedKim + sr.Stats.PrunedKeogh + sr.Stats.Evaluated; got != sr.Stats.Candidates {
		t.Fatalf("stats do not partition candidates: %+v", sr.Stats)
	}

	r2, err := c.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer r2.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(r2.Body).Decode(&st); err != nil {
		t.Fatalf("stats response: %v", err)
	}
	if !st.StoreBacked || st.Segments == 0 || st.SketchWidth == 0 {
		t.Fatalf("store shape missing from stats: %+v", st)
	}
	if st.Tombstones != 1 {
		t.Fatalf("stats report %d tombstones, want 1", st.Tombstones)
	}

	resp, body = postJSON(t, c, ts.URL+"/v1/compact", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: status %d: %s", resp.StatusCode, body)
	}
	var cr CompactResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("compact response: %v", err)
	}
	if !cr.OK || cr.LiveRecords != len(d.Series)-1 {
		t.Fatalf("unexpected compact response: %+v", cr)
	}

	// An in-RAM index refuses compaction.
	srv2, _ := newTestServer(t, Config{})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp, body = postJSON(t, ts2.Client(), ts2.URL+"/v1/compact", struct{}{})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("compact on in-RAM index: status %d, want 409: %s", resp.StatusCode, body)
	}
}

// TestDegradedServing: a store with a quarantined segment serves —
// /healthz stays 200 so load balancers keep routing, but flags
// degraded, and /v1/stats pins the damage to the shard carrying it.
func TestDegradedServing(t *testing.T) {
	d := sdtw.GunDataset(sdtw.DatasetConfig{Seed: 17, SeriesPerClass: 6})
	opts := sdtw.Options{Strategy: sdtw.FixedCoreFixedWidth, WidthFrac: 0.10, StoreSegmentRecords: 2}
	ram, err := sdtw.NewShardedIndex(d.Series, 3, opts)
	if err != nil {
		t.Fatalf("NewShardedIndex: %v", err)
	}
	dir := t.TempDir() + "/store"
	if err := ram.SaveStore(dir); err != nil {
		t.Fatalf("SaveStore: %v", err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "shard-0001", "seg-*.hot"))
	if err != nil || len(matches) < 2 {
		t.Fatalf("want sealed segments in shard 1, got %v (%v)", matches, err)
	}
	raw, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-5] ^= 0xff
	if err := os.WriteFile(matches[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ix, err := sdtw.OpenShardedIndex(dir, opts, sdtw.AllowQuarantine())
	if err != nil {
		t.Fatalf("degraded open: %v", err)
	}
	defer ix.CloseStore()

	srv := New(ix, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()

	r, err := c.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer r.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatalf("stats response: %v", err)
	}
	if !st.Degraded || st.Health == nil || st.Health.Quarantined != 1 || st.Health.QuarantinedRecords == 0 {
		t.Fatalf("stats do not report the quarantine: %+v (health %+v)", st, st.Health)
	}
	if len(st.ShardHealth) != 3 || st.ShardHealth[1].Quarantined != 1 ||
		st.ShardHealth[0].Quarantined != 0 || st.ShardHealth[2].Quarantined != 0 {
		t.Fatalf("shard health does not pin the damage to shard 1: %+v", st.ShardHealth)
	}

	r2, err := c.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("degraded healthz: status %d, want 200 (degraded serves)", r2.StatusCode)
	}
	var h HealthResponse
	if err := json.NewDecoder(r2.Body).Decode(&h); err != nil {
		t.Fatalf("healthz response: %v", err)
	}
	if !h.OK || !h.Degraded || h.QuarantinedSegments != 1 {
		t.Fatalf("healthz = %+v, want ok and degraded with one quarantined segment", h)
	}

	// The survivors still answer searches.
	resp, body := postJSON(t, c, ts.URL+"/v1/search", SearchRequest{Values: d.Series[1].Values, K: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded search: status %d: %s", resp.StatusCode, body)
	}
}

// TestOversizedBodyRefused pins the request-body cap: a well-formed
// /v1/add or /v1/search body over maxBodyBytes is answered 413 without
// touching the index or the counters (uncapped, both were decoded whole
// and executed).
func TestOversizedBodyRefused(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// `{"id":"big","values":[0,0,...,0]}`, just over the cap.
	var body bytes.Buffer
	body.WriteString(`{"id":"big","values":[`)
	body.WriteString(strings.Repeat("0,", maxBodyBytes/2))
	body.WriteString(`0]}`)

	before := srv.ix.Len()
	for _, path := range []string{"/v1/add", "/v1/search"} {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body.Bytes()))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: status %d, want 413", path, body.Len(), resp.StatusCode)
		}
	}
	if got := srv.ix.Len(); got != before {
		t.Errorf("oversized add changed Len: %d -> %d", before, got)
	}
	if a, s, r := srv.adds.Load(), srv.searches.Load(), srv.rejected.Load(); a != 0 || s != 0 || r != 0 {
		t.Errorf("counters moved: adds %d searches %d rejected %d", a, s, r)
	}
	if len(srv.sem) != 0 || srv.waiting.Load() != 0 {
		t.Errorf("admission state moved: inflight %d queued %d", len(srv.sem), srv.waiting.Load())
	}

	// A body under the cap still gets its ordinary answer.
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/remove", RemoveRequest{ID: "no-such"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("small remove: status %d, want 404", resp.StatusCode)
	}
}

// TestHeaderTimeoutClosesConnection: Run's server carries the header
// timeout, and a request header that never completes gets its connection
// closed by it.
func TestHeaderTimeoutClosesConnection(t *testing.T) {
	defer checkNoLeaks(t, runtime.NumGoroutine())

	srv, _ := newTestServer(t, Config{})
	hs := srv.httpServer("127.0.0.1:0")
	if hs.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("Run's server has ReadHeaderTimeout %v, want %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.ReadTimeout != readTimeout || hs.MaxHeaderBytes != maxHeaderBytes {
		t.Fatalf("Run's server has ReadTimeout %v and MaxHeaderBytes %d, want %v and %d",
			hs.ReadTimeout, hs.MaxHeaderBytes, readTimeout, maxHeaderBytes)
	}
	hs.ReadHeaderTimeout = 100 * time.Millisecond // the constant, shortened for the test

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	runDone := make(chan error, 1)
	go func() { runDone <- srv.run(ctx, hs, time.Second, ready) }()

	conn, err := net.Dial("tcp", <-ready)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/add HTTP/1.1\r\nHost: sdtwd\r\n")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("server kept the half-sent request open: %v", err)
	}

	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("Run: %v", err)
	}
}
