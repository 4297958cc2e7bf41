package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"sdtw/internal/retrieve"
	"sdtw/internal/series"
	"sdtw/internal/sketch"
)

const (
	testLength = 32
	testSketch = 8
)

// testConfig is a windowed-backend cluster configuration: the windowed
// backend needs no engine options and exercises the full cascade.
func testConfig(shards int) Config {
	return Config{
		Shards: shards,
		NewBackend: func(int) (retrieve.Backend, error) {
			b, _, err := retrieve.NewWindowedBackend(testLength, 4)
			return b, err
		},
		Workers:     2,
		SketchWidth: testSketch,
	}
}

// testData returns n random series with IDs s-000, s-001, ….
func testData(n int, seed int64) []series.Series {
	rng := rand.New(rand.NewSource(seed))
	data := make([]series.Series, n)
	for i := range data {
		vals := make([]float64, testLength)
		for j := range vals {
			vals[j] = rng.NormFloat64()
		}
		data[i] = series.Series{ID: fmt.Sprintf("s-%03d", i), Label: i % 3, Values: vals}
	}
	return data
}

func mustSearch(t *testing.T, c *Cluster, q series.Series, k int) []Hit {
	t.Helper()
	p := retrieve.DefaultParams()
	p.K = k
	hits, _, err := c.Search(context.Background(), q, p)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	return hits
}

func requireSameHits(t *testing.T, label string, want, got []Hit) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d hits, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].ID != got[i].ID || math.Float64bits(want[i].Distance) != math.Float64bits(got[i].Distance) {
			t.Fatalf("%s: rank %d is %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestRoute: routing is a pure function of (ID, shard count), in range,
// and pinned — a store root's shard directories are laid out by it, so a
// changed hash would strand every stored series in the wrong shard.
func TestRoute(t *testing.T) {
	golden := map[string]int{"s-000": 3, "s-001": 0, "gun-0-01": 0, "": 1}
	for id, want := range golden {
		if got := Route(id, 4); got != want {
			t.Errorf("Route(%q, 4) = %d, want %d", id, got, want)
		}
	}
	seen := make(map[int]bool)
	for _, s := range testData(64, 1) {
		sh := Route(s.ID, 5)
		if sh < 0 || sh >= 5 || sh != Route(s.ID, 5) {
			t.Fatalf("Route(%q, 5) = %d, then %d", s.ID, sh, Route(s.ID, 5))
		}
		seen[sh] = true
		if Route(s.ID, 1) != 0 {
			t.Fatalf("Route(%q, 1) != 0", s.ID)
		}
	}
	if len(seen) != 5 {
		t.Fatalf("64 IDs reached only shards %v of 5", seen)
	}
}

func TestConfigRefused(t *testing.T) {
	data := testData(4, 2)
	for _, shards := range []int{0, -1} {
		if _, err := New(testConfig(shards), data); err == nil {
			t.Fatalf("New accepted %d shards", shards)
		}
	}
	cfg := testConfig(2)
	cfg.NewBackend = nil
	if _, err := New(cfg, data); err == nil {
		t.Fatal("New accepted a nil backend constructor")
	}
	if _, err := RestoreCold(testConfig(2), make([][]retrieve.ColdSeries, 3), make([][]uint64, 3), 0); !errors.Is(err, retrieve.ErrConfigMismatch) {
		t.Fatalf("RestoreCold with 3 parts for 2 shards: %v, want ErrConfigMismatch", err)
	}
	if _, err := New(testConfig(2), append(data, data[0])); !errors.Is(err, retrieve.ErrDuplicateID) {
		t.Fatalf("duplicate ID: %v, want ErrDuplicateID", err)
	}
	if _, err := New(testConfig(2), []series.Series{{Values: data[0].Values}}); !errors.Is(err, ErrNoID) {
		t.Fatalf("missing ID: %v, want ErrNoID", err)
	}
}

// TestNewAndRestoreColdAgree: a cluster rebuilt from its own per-shard
// snapshots — envelopes and sketches trusted, values behind loaders —
// answers bit-identically to the one built from the raw data.
func TestNewAndRestoreColdAgree(t *testing.T) {
	data := testData(40, 3)
	const shards = 3
	warm, err := New(testConfig(shards), data)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]retrieve.ColdSeries, shards)
	seqs := make([][]uint64, shards)
	for i := 0; i < shards; i++ {
		part, envs, sq := warm.ShardSnapshot(i)
		seqs[i] = sq
		for j, s := range part {
			sk, err := sketch.FromEnvelope(envs[j], testSketch)
			if err != nil {
				t.Fatal(err)
			}
			vals := s.Values
			parts[i] = append(parts[i], retrieve.ColdSeries{
				ID: s.ID, Label: s.Label, N: len(vals), First: vals[0], Last: vals[len(vals)-1],
				Envelope: envs[j], Sketch: sk,
				Load: func() ([]float64, error) { return vals, nil },
			})
		}
	}
	cold, err := RestoreCold(testConfig(shards), parts, seqs, warm.NextSeq())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Len() != warm.Len() || cold.NextSeq() != warm.NextSeq() {
		t.Fatalf("restored %d series / next seq %d, want %d / %d", cold.Len(), cold.NextSeq(), warm.Len(), warm.NextSeq())
	}
	for qi, q := range testData(6, 4) {
		q.ID = ""
		for _, k := range []int{1, 5, 40} {
			requireSameHits(t, fmt.Sprintf("query %d k=%d", qi, k), mustSearch(t, warm, q, k), mustSearch(t, cold, q, k))
		}
	}
}

// TestAddRemoveSequences: Add hands out consecutive cluster-wide
// insertion sequences, Seq and Remove report the one a series holds, and
// a removed ID is gone for both.
func TestAddRemoveSequences(t *testing.T) {
	data := testData(10, 5)
	c, err := New(testConfig(3), data[:6])
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range data[:6] {
		if seq, err := c.Seq(s.ID); err != nil || seq != uint64(i) {
			t.Fatalf("Seq(%q) = %d, %v; want %d", s.ID, seq, err, i)
		}
	}
	for i, s := range data[6:] {
		if seq, err := c.Add(s); err != nil || seq != uint64(6+i) {
			t.Fatalf("Add(%q) = %d, %v; want %d", s.ID, seq, err, 6+i)
		}
	}
	if _, err := c.Add(data[7]); !errors.Is(err, retrieve.ErrDuplicateID) {
		t.Fatalf("duplicate Add: %v, want ErrDuplicateID", err)
	}
	if c.NextSeq() != 10 {
		t.Fatalf("a refused Add consumed a sequence: next is %d", c.NextSeq())
	}
	if seq, err := c.Remove(data[8].ID); err != nil || seq != 8 {
		t.Fatalf("Remove = %d, %v; want 8", seq, err)
	}
	if _, err := c.Remove(data[8].ID); !errors.Is(err, retrieve.ErrUnknownID) {
		t.Fatalf("second Remove: %v, want ErrUnknownID", err)
	}
	if _, err := c.Seq(data[8].ID); !errors.Is(err, retrieve.ErrUnknownID) {
		t.Fatalf("Seq of a removed ID: %v, want ErrUnknownID", err)
	}
	if _, err := c.Seq(""); !errors.Is(err, ErrNoID) {
		t.Fatalf("Seq of the empty ID: %v, want ErrNoID", err)
	}
	// A re-added ID gets a fresh sequence, not its old one.
	if seq, err := c.Add(data[8]); err != nil || seq != 10 {
		t.Fatalf("re-Add = %d, %v; want 10", seq, err)
	}
}

// TestDrainAndRefill: every shard may drain to empty — an empty cluster
// answers with no hits and no error — and fills again through Add. A
// drained shard is an empty core, not a missing one: every accessor keeps
// answering, and a cluster restores over shards that hold nothing.
func TestDrainAndRefill(t *testing.T) {
	data := testData(12, 6)
	c, err := New(testConfig(3), data)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range data {
		if _, err := c.Remove(s.ID); err != nil {
			t.Fatalf("Remove(%q): %v", s.ID, err)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("drained cluster holds %d series", c.Len())
	}
	for i, n := range c.Sizes() {
		if part, envs, seqs := c.ShardSnapshot(i); n != 0 || len(part)+len(envs)+len(seqs) != 0 {
			t.Fatalf("drained shard %d: size %d, snapshot %d/%d/%d", i, n, len(part), len(envs), len(seqs))
		}
	}
	if _, err := c.Seq(data[0].ID); !errors.Is(err, retrieve.ErrUnknownID) {
		t.Fatalf("Seq on a drained shard: %v, want ErrUnknownID", err)
	}
	if _, err := c.Remove(data[0].ID); !errors.Is(err, retrieve.ErrUnknownID) {
		t.Fatalf("Remove on a drained shard: %v, want ErrUnknownID", err)
	}
	if env := c.Envelope(data[0].ID); len(env.Upper) != 0 {
		t.Fatalf("Envelope of a removed series: %v", env)
	}
	restored, err := RestoreCold(testConfig(3), make([][]retrieve.ColdSeries, 3), make([][]uint64, 3), c.NextSeq())
	if err != nil {
		t.Fatalf("RestoreCold over empty shards: %v", err)
	}
	if seq, err := restored.Add(data[0]); err != nil || seq != c.NextSeq() || restored.Len() != 1 {
		t.Fatalf("Add into a restored empty cluster = %d, %v; holds %d", seq, err, restored.Len())
	}
	q := series.Series{Values: data[0].Values}
	if hits := mustSearch(t, c, q, 3); len(hits) != 0 {
		t.Fatalf("empty cluster answered %v", hits)
	}
	if _, _, err := c.Search(context.Background(), series.Series{}, retrieve.DefaultParams()); !errors.Is(err, retrieve.ErrEmptySeries) {
		t.Fatalf("empty query on an empty cluster: %v, want ErrEmptySeries", err)
	}
	for i, s := range data {
		if seq, err := c.Add(s); err != nil || seq != uint64(len(data)+i) {
			t.Fatalf("refill Add(%q) = %d, %v", s.ID, seq, err)
		}
	}
	fresh, err := New(testConfig(3), data)
	if err != nil {
		t.Fatal(err)
	}
	requireSameHits(t, "refilled", mustSearch(t, fresh, q, 5), mustSearch(t, c, q, 5))
}

// TestMergeTieBreakBySequence: equal distances on different shards merge
// in insertion order, whatever order the series were routed or the shard
// searches finished in.
func TestMergeTieBreakBySequence(t *testing.T) {
	vals := testData(1, 7)[0].Values
	const copies = 9
	c, err := New(testConfig(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	shardsHit := make(map[int]bool)
	// Insert in an order unrelated to the IDs' hash order.
	for _, i := range rand.New(rand.NewSource(8)).Perm(copies) {
		id := fmt.Sprintf("twin-%d", i)
		if _, err := c.Add(series.Series{ID: id, Values: vals}); err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
		shardsHit[Route(id, 4)] = true
	}
	if len(shardsHit) < 2 {
		t.Fatalf("twins all routed to one shard: %v", shardsHit)
	}
	for _, k := range []int{copies, 4} {
		hits := mustSearch(t, c, series.Series{Values: vals}, k)
		if len(hits) != k {
			t.Fatalf("k=%d: %d hits", k, len(hits))
		}
		for i, h := range hits {
			if h.Distance != 0 || h.ID != want[i] {
				t.Fatalf("k=%d rank %d: %+v, want %q at distance 0", k, i, h, want[i])
			}
		}
	}
}

// TestConcurrentChurn runs Add, Remove and Search against each other
// (meaningful under -race): searches never fail or see a half-published
// shard, and the cluster ends holding exactly the series never removed.
func TestConcurrentChurn(t *testing.T) {
	base := testData(24, 9)
	churn := testData(48, 10)
	for i := range churn {
		churn[i].ID = fmt.Sprintf("churn-%03d", i)
	}
	c, err := New(testConfig(4), base)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const writers = 4
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(churn); i += writers {
				if _, err := c.Add(churn[i]); err != nil {
					t.Errorf("Add(%q): %v", churn[i].ID, err)
				}
				if i%2 == 0 {
					if _, err := c.Remove(churn[i].ID); err != nil {
						t.Errorf("Remove(%q): %v", churn[i].ID, err)
					}
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			p := retrieve.DefaultParams()
			p.K = 3
			for i := 0; i < 30; i++ {
				q := series.Series{Values: base[(r+i)%len(base)].Values}
				hits, _, err := c.Search(context.Background(), q, p)
				if err != nil || len(hits) != 3 || hits[0].Distance != 0 {
					t.Errorf("search during churn: %v, %v", hits, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if want := len(base) + len(churn)/2; c.Len() != want {
		t.Fatalf("cluster holds %d series after churn, want %d", c.Len(), want)
	}
	sum := 0
	for _, n := range c.Sizes() {
		sum += n
	}
	if sum != c.Len() || c.NextSeq() != uint64(len(base)+len(churn)) {
		t.Fatalf("sizes sum to %d of %d; next seq %d", sum, c.Len(), c.NextSeq())
	}
}
