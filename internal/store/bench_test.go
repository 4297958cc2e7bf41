package store

import (
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"sdtw/internal/lower"
	"sdtw/internal/sketch"
)

// The benchmark store has the knn-bounds geometry: 20 000 series of
// length 128 with radius-3 envelopes and 16-wide sketches, sealed at the
// default segment size. It is built once per test binary and removed by
// TestMain.
const (
	benchRecords = 20000
	benchLength  = 128
	benchRadius  = 3
	benchWidth   = 16
)

var bench struct {
	once sync.Once
	dir  string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if bench.dir != "" {
		os.RemoveAll(bench.dir)
	}
	os.Exit(code)
}

// benchStore returns the directory of the shared benchmark store,
// building it on first use.
func benchStore(b *testing.B) string {
	b.Helper()
	bench.once.Do(func() {
		if bench.dir, bench.err = os.MkdirTemp("", "store-bench-"); bench.err != nil {
			return
		}
		bench.err = buildBenchStore(bench.dir)
	})
	if bench.err != nil {
		b.Fatal(bench.err)
	}
	return bench.dir
}

func buildBenchStore(dir string) error {
	st, err := Create(dir, Config{Fingerprint: "bench", SketchWidth: benchWidth})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < benchRecords; i++ {
		vals := make([]float64, benchLength)
		x := 0.0
		for j := range vals {
			x += rng.NormFloat64()
			vals[j] = x
		}
		env := lower.NewEnvelope(vals, benchRadius)
		sk, err := sketch.FromEnvelope(env, benchWidth)
		if err != nil {
			return err
		}
		rec := Record{ID: "s" + strconv.Itoa(i), Label: i % 3, Seq: uint64(i), N: benchLength,
			First: vals[0], Last: vals[benchLength-1], Sketch: sk, Envelope: env, Values: vals}
		if err := st.Append(rec); err != nil {
			return err
		}
	}
	if err := st.Sync(); err != nil {
		return err
	}
	return st.Close()
}

// BenchmarkStoreOpen measures an Open of the 20 000 × 128 store — every
// hot record parsed and checked, the active segment's value blocks
// verified — followed by Live.
func BenchmarkStoreOpen(b *testing.B) {
	dir := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if n := len(st.Live()); n != benchRecords {
			b.Fatalf("%d live records, want %d", n, benchRecords)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadValues measures one Record.LoadValues — a checked read
// of one 128-value block — cycling through the store's records.
func BenchmarkLoadValues(b *testing.B) {
	st, err := Open(benchStore(b))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	live := st.Live()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := live[i%len(live)].LoadValues(); err != nil {
			b.Fatal(err)
		}
	}
}
