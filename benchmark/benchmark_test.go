package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sdtw/internal/dtw"
	"sdtw/internal/vfs"
)

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {50000, 99}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = p%v, want p%v", tc.n, got, tc.want)
		}
	}
	sorted := make([]float64, 60)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if v, used := nominalTail(sorted, 95); used != 75 || v != 45 {
		t.Errorf("nominalTail(60 samples, p95) = %v at p%v, want 45 at p75", v, used)
	}
	if v, used := nominalTail(sorted, 75); used != 75 || v != 45 {
		t.Errorf("nominalTail(60 samples, p75) = %v at p%v, want 45 at p75", v, used)
	}
	if got := percentile(sorted, 50); got != 30 {
		t.Errorf("p50 of 1..60 = %v, want 30", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: 10..50 is covered once
		{Name: "c", Start: 70, End: 80, Parent: 0},  // disjoint
		{Name: "d", Start: 95, End: 120, Parent: 0}, // runs past its parent: clipped at 100
		{Name: "a1", Start: 12, End: 18, Parent: 1}, // grandchild: only a's self time
	}
	self := selfTimes(spans)
	want := []time.Duration{100 - 40 - 10 - 5, 20 - 6, 30, 10, 25, 6}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}

	rec := newRecorder()
	root := rec.begin("outer", -1, 0)
	inner := rec.begin("inner", root, 0)
	rec.end(inner)
	rec.end(root)
	tot := rec.totals()
	if tot["outer"].Count != 1 || tot["inner"].Count != 1 {
		t.Fatalf("totals %v", tot)
	}
	if tot["outer"].Self != tot["outer"].Total-tot["inner"].Total {
		t.Errorf("outer self %v != total %v - inner %v", tot["outer"].Self, tot["outer"].Total, tot["inner"].Total)
	}
	var none *recorder
	none.end(none.begin("ignored", -1, 0)) // a nil recorder records nothing and must not panic
	if none.count() != 0 || len(none.totals()) != 0 {
		t.Error("nil recorder recorded something")
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	knn := func(seed int64) string {
		coll, queries, err := labeled("Trace", 6, 2, 64, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(coll) != 24 || len(queries) != 8 {
			t.Fatalf("labeled gave %d + %d series, want 24 + 8", len(coll), len(queries))
		}
		ids := map[string]bool{}
		for _, s := range coll {
			ids[s.ID] = true
		}
		for i, q := range queries {
			if ids[q.ID] {
				t.Fatalf("query %q is a member of the collection", q.ID)
			}
			if q.Label != i%4 {
				t.Fatalf("query %d has label %d: queries must interleave the classes", i, q.Label)
			}
		}
		ih := newInputHash()
		ih.series(coll)
		ih.series(queries)
		return ih.sum()
	}
	if a, b := knn(42), knn(42); a != b {
		t.Errorf("same seed, different inputs: %s vs %s", a, b)
	}
	if a, b := knn(42), knn(7); a == b {
		t.Errorf("different seeds, same inputs: %s", a)
	}
	hub := func(seed int64) string {
		ih := newInputHash()
		makeFleet(6, 3, 16, 2*fleetBatch, 13, seed).hash(ih)
		return ih.sum()
	}
	if a, b := hub(42), hub(42); a != b {
		t.Errorf("same seed, different fleets: %s vs %s", a, b)
	}
	if a, b := hub(42), hub(7); a == b {
		t.Errorf("different seeds, same fleet: %s", a)
	}
	// The live mix has no dead points at all; the dormant mix is mostly dead.
	dead := func(f fleet) (n, total int) {
		for _, s := range f.streams {
			for _, v := range s {
				total++
				if v > fleetDeadLevel/2 {
					n++
				}
			}
		}
		return n, total
	}
	if n, _ := dead(makeFleet(4, 3, 16, 4*fleetBatch, 0, 1)); n != 0 {
		t.Errorf("live fleet holds %d dead points", n)
	}
	if n, total := dead(makeFleet(4, 3, 16, 4*fleetBatch, 13, 1)); float64(n) < 0.6*float64(total) {
		t.Errorf("dormant fleet holds only %d dead points of %d", n, total)
	}
}

func TestNaiveDTWMatchesKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		x := make([]float64, 1+rng.Intn(40))
		y := make([]float64, 1+rng.Intn(40))
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		want, err := dtw.Distance(x, y, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := naiveDTW(x, y, make([]float64, (len(x)+1)*(len(y)+1)))
		if math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("trial %d (%dx%d): naive %v, dtw.Distance %v", trial, len(x), len(y), got, want)
		}
	}
}

func TestCountingFS(t *testing.T) {
	dir := t.TempDir()
	cfs := newCountingFS(vfs.OS())
	name := filepath.Join(dir, "a")
	f, err := cfs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []string{"hello ", "world"} {
		if _, err := f.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cfs.Rename(name, filepath.Join(dir, "b")); err != nil {
		t.Fatal(err)
	}
	if err := cfs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	data, err := cfs.ReadFile(filepath.Join(dir, "b"))
	if err != nil || string(data) != "hello world" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	r, err := cfs.Open(filepath.Join(dir, "b"))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := r.ReadAt(buf, 6); err != nil || string(buf) != "world" {
		t.Fatalf("ReadAt = %q, %v", buf, err)
	}
	r.Close()
	if err := cfs.WriteFile(filepath.Join(dir, "c"), []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	a, size, err := cfs.OpenAppend(filepath.Join(dir, "c"))
	if err != nil || size != 3 {
		t.Fatalf("OpenAppend size %d, %v", size, err)
	}
	if _, err := a.Write([]byte("!")); err != nil {
		t.Fatal(err)
	}
	a.Close()

	got := cfs.counts()
	got.SyncTime = 0
	want := fsCounts{Writes: 4, WriteBytes: 6 + 5 + 3 + 1, Reads: 2, ReadBytes: 11 + 5, Syncs: 2, Renames: 1}
	if got != want {
		t.Fatalf("counts %+v, want %+v", got, want)
	}
	if d := cfs.counts().sub(fsCounts{Writes: 1}); d.Writes != 3 {
		t.Errorf("sub: %+v", d)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %v, %v; want 1, 3", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{100, 130, 80, 115, 90, 125, 85, 100, 120, 75}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		def            metricDef
		parent, change []float64
		want           string
	}{
		{"same", lower, steady, steady, "unchanged"},
		{"slightly slower, inside the bound", lower, steady, scale(steady, 1.05), "unchanged"},
		{"slower beyond the bound", lower, steady, scale(steady, 1.2), "worse"},
		{"faster beyond the spread", lower, steady, scale(steady, 0.9), "improved"},
		{"throughput up", higher, steady, scale(steady, 1.2), "improved"},
		{"throughput down", higher, steady, scale(steady, 0.8), "worse"},
		{"spread wider than the bound", lower, noisy, scale(noisy, 1.05), "unresolved"},
		{"spread wider, but every run wins", lower, noisy, scale(noisy, 0.5), "improved"},
		{"spread wider, and every run loses", lower, noisy, scale(noisy, 2), "worse"},
	} {
		if got, _, _ := verdict(tc.def, tc.parent, tc.change); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		var buf bytes.Buffer
		for i := 0; i < 4; i++ {
			line, err := json.Marshal(savedRun{Workload: "knn-dp", Seed: 42, Inputs: "abc", Correct: true,
				Metrics: map[string]metricValue{"op_p50_ms": {p50 + float64(i), "ms"}, "throughput_per_s": {10, "1/s"}}})
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent, slow := write("parent.json", 100), write("slow.json", 150)
	var out bytes.Buffer
	worse, err := compareFiles(&out, parent, slow)
	if err != nil {
		t.Fatal(err)
	}
	if !worse || !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "of base") {
		t.Errorf("a 50%% slower median was not reported worse with its base:\n%s", out.String())
	}
	out.Reset()
	if worse, err := compareFiles(&out, parent, parent); err != nil || worse {
		t.Errorf("a file against itself: worse=%v err=%v\n%s", worse, err, out.String())
	}
}

// TestBenchmarkJSONInSync keeps the committed BENCHMARK.json equal to
// the ledger the code defines (regenerate with -print-benchmark-json).
func TestBenchmarkJSONInSync(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark directory: %v", err)
	}
	var got benchmarkFile
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkJSON(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the ledger in metrics.go/main.go; regenerate it with -print-benchmark-json")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s has direction %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestSmokeEveryWorkload runs every workload's code path and
// correctness check at smoke size, untraced and traced, and checks each
// run exports exactly the metric list the contract asks for.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{seed: 42, seconds: 0.2, trace: trace, smoke: true, scratch: t.TempDir()}
			res, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v", w.name, trace, res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			values, err := res.Metrics.export(defs)
			if err != nil {
				t.Errorf("%s trace=%v: %v", w.name, trace, err)
				continue
			}
			if !trace {
				for _, d := range defs {
					if values[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, d.Name, values[d.Name].Value)
					}
				}
			}
			if len(res.Inputs) != 64 {
				t.Errorf("%s: inputs_sha256 %q", w.name, res.Inputs)
			}
		}
	}
}
