package retrieve

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sdtw/internal/band"
	"sdtw/internal/core"
	"sdtw/internal/lower"
	"sdtw/internal/series"
	"sdtw/internal/sketch"
)

// sortedSearch is the cascade as it ran before candidates were visited
// lazily: the ordering bound of every candidate, one sort over all of them
// on (bound, pos), then a visit of each in that order at one worker,
// pruning by sketch, LB_Kim and LB_Keogh against a threshold that only
// tightens. The sort places NaN bounds after every number — the placement the lazy
// order defines; the old sort left them wherever pdqsort put them. It is
// the reference Core.Search's heap order and bulk-counted tail are held
// to, and SearchParts' over any split of c whose sequences ascend with
// c's positions.
func sortedSearch(c *Core, query series.Series, p Params) ([]Neighbor, Stats, error) {
	var stats Stats
	q, err := c.prepareLocked(query)
	if err != nil {
		return nil, stats, err
	}
	limit := p.EffectiveThreshold()
	qmean, err := sketch.Means(q.Values, c.sketchW, nil)
	if err != nil {
		return nil, stats, err
	}
	var cands []refCandidate
	for i, s := range c.data {
		if i == p.Exclude || (s.ID != "" && s.ID == q.ID) {
			continue
		}
		m := c.meta[i]
		stats.GridCells += len(q.Values) * m.n
		endpoints := []float64{m.first, m.last}[:min(m.n, 2)]
		kim, err := lower.Kim(q.Values, endpoints, nil)
		if err != nil {
			return nil, stats, err
		}
		cd := refCandidate{pos: i, bound: kim, kim: kim}
		if m.n == len(q.Values) {
			cd.bound = sketch.LBPAA(qmean, c.sketches[i], m.n)
			cd.paa = true
		}
		cands = append(cands, cd)
	}
	stats.Candidates = len(cands)
	sort.Slice(cands, func(a, b int) bool {
		if an, bn := math.IsNaN(cands[a].bound), math.IsNaN(cands[b].bound); an || bn {
			if an && bn {
				return cands[a].pos < cands[b].pos
			}
			return bn
		}
		if cands[a].bound != cands[b].bound {
			return cands[a].bound < cands[b].bound
		}
		return cands[a].pos < cands[b].pos
	})
	k := p.K
	if k <= 0 || k > len(cands) {
		k = len(cands)
	}
	if k == 0 {
		return nil, stats, nil
	}
	var threshold sharedThreshold
	threshold.seed(limit)
	best := make(bestK, 0, k+1)
	for _, cd := range cands {
		if cd.paa && cd.bound > threshold.Load() {
			stats.PrunedSketch++
			continue
		}
		if cd.kim > threshold.Load() {
			stats.PrunedKim++
			continue
		}
		if env := c.envelopes[cd.pos]; len(env.Upper) == len(q.Values) {
			kg, kgAbandoned, err := lower.KeoghUnder(q.Values, env, threshold.Load(), nil)
			if err != nil {
				return nil, stats, err
			}
			if kgAbandoned || kg > threshold.Load() {
				stats.PrunedKeogh++
				continue
			}
		}
		s := c.data[cd.pos]
		vals, f, err := c.entry(cd.pos)
		if err != nil {
			return nil, stats, err
		}
		s.Values = vals
		res, err := c.backend.engine.DistanceUnderFeatures(context.Background(), q.Series, q.feats, s, f, threshold.Load())
		if err != nil {
			return nil, stats, err
		}
		stats.Evaluated++
		stats.Cells += res.CellsFilled
		if res.Abandoned {
			stats.AbandonedDTW++
			stats.CellsSaved += res.BandCells - res.CellsFilled
			continue
		}
		if res.Distance > limit {
			continue
		}
		nb := Neighbor{Pos: cd.pos, ID: s.ID, Label: s.Label, Distance: res.Distance}
		if len(best) < k {
			heap.Push(&best, nb)
		} else if best.worseThan(nb) {
			best[0] = nb
			heap.Fix(&best, 0)
		}
		if len(best) == k {
			threshold.Tighten(best[0].Distance)
		}
	}
	out := []Neighbor(best)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Distance != out[b].Distance {
			return out[a].Distance < out[b].Distance
		}
		return out[a].Pos < out[b].Pos
	})
	return out, stats, nil
}

// refCandidate is the cascade work item as sortedSearch keeps it: the
// ordering bound and the LB_Kim bound as floats, and whether the ordering
// bound is the sketch's.
type refCandidate struct {
	pos        int
	bound, kim float64
	paa        bool
}

// beforeFloat is the visit order over float bounds: the smaller bound
// first, a NaN bound after every number, equal bounds (or two NaNs) by
// position. candidate.before over visit keys is held to it.
func beforeFloat(a, b refCandidate) bool {
	if a.bound < b.bound {
		return true
	}
	if a.bound > b.bound {
		return false
	}
	if an, bn := math.IsNaN(a.bound), math.IsNaN(b.bound); an != bn {
		return bn
	}
	return a.pos < b.pos
}

// countsOf projects the work counts of a Stats record, dropping the
// timings.
func countsOf(s Stats) [9]int {
	return [9]int{s.Candidates, s.PrunedSketch, s.PrunedKim, s.PrunedKeogh,
		s.Evaluated, s.AbandonedDTW, s.CellsSaved, s.Cells, s.GridCells}
}

// sameNeighbors compares two result lists bit for bit.
func sameNeighbors(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Pos != b[i].Pos || a[i].ID != b[i].ID || a[i].Label != b[i].Label ||
			math.Float64bits(a[i].Distance) != math.Float64bits(b[i].Distance) {
			return false
		}
	}
	return true
}

// randomWalks returns n random walks with lengths drawn from lengths; the
// last dups of them repeat earlier series' values under their own IDs, so
// their bounds and distances tie.
func randomWalks(rng *rand.Rand, n, dups int, lengths []int) []series.Series {
	data := make([]series.Series, n)
	for i := range data {
		if i >= n-dups && i > 0 {
			src := data[rng.Intn(n-dups)]
			data[i] = series.Series{ID: fmt.Sprintf("s%03d", i), Label: i % 3, Values: src.Values}
			continue
		}
		vals := make([]float64, lengths[rng.Intn(len(lengths))])
		x := rng.NormFloat64() * 4
		for j := range vals {
			x += rng.NormFloat64()
			vals[j] = x
		}
		data[i] = series.Series{ID: fmt.Sprintf("s%03d", i), Label: i % 3, Values: vals}
	}
	return data
}

// orderCores builds the cores the differential runs over: the windowed
// backend over equal lengths, and two engine backends over mixed lengths
// (so Kim-ordered and LB_PAA-ordered candidates mix in one queue) — the
// Sakoe-Chiba strategy, which reads no features, and the default
// adaptive one. Every core's sketches are at width 8, not the default;
// duplicates tie bounds.
func orderCores(t testing.TB, rng *rand.Rand, n int) map[string]*Core {
	t.Helper()
	cores := map[string]*Core{}
	build := func(name string, b *Backend, data []series.Series) {
		c, err := New(b, data, 4, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := c.EnableSketches(8); err != nil {
			t.Fatal(err)
		}
		cores[name] = c
	}
	wb, _, err := NewWindowedBackend(48, 3)
	if err != nil {
		t.Fatal(err)
	}
	build("windowed", wb, randomWalks(rng, n, n/8, []int{48}))
	mixed := []int{40, 48, 48, 56}
	fcfw := core.DefaultOptions()
	fcfw.Band = band.Config{Strategy: band.FixedCoreFixedWidth, WidthFrac: 0.2}
	build("engine-fcfw", NewEngineBackend(core.NewEngine(fcfw), "fcfw", false), randomWalks(rng, n, n/8, mixed))
	build("engine-acaw", NewEngineBackend(core.NewEngine(core.DefaultOptions()), "acaw", false), randomWalks(rng, n/2, n/16, mixed))
	return cores
}

// orderParams is the parameter grid of the differential: K of 1, 5, the
// whole collection, a range search and K within a range; a positional
// exclusion.
func orderParams(t testing.TB, c *Core, q series.Series, rng *rand.Rand) map[string]func() Params {
	t.Helper()
	// A distance near the middle of the collection's, for range searches.
	rank := DefaultParams()
	rank.K = c.Len()
	all, _, err := sortedSearch(c, q, rank)
	if err != nil || len(all) == 0 {
		t.Fatalf("ranking the collection: %d neighbours, %v", len(all), err)
	}
	mid := all[len(all)/3].Distance
	exclude := rng.Intn(c.Len())
	with := func(f func(*Params)) func() Params {
		return func() Params {
			p := DefaultParams()
			f(&p)
			return p
		}
	}
	return map[string]func() Params{
		"k=1":       with(func(p *Params) {}),
		"k=5":       with(func(p *Params) { p.K = 5 }),
		"k=len":     with(func(p *Params) { p.K = c.Len() }),
		"range":     with(func(p *Params) { p.K, p.Threshold, p.ThresholdSet = 0, mid, true }),
		"k=3+range": with(func(p *Params) { p.K, p.Threshold, p.ThresholdSet = 3, mid, true }),
		"exclude":   with(func(p *Params) { p.K, p.Exclude = 3, exclude }),
	}
}

// checkOrder runs one search lazily and through the sorted reference:
// at one worker, identical neighbours and counts; at four, identical
// neighbours and counts that partition the candidates.
func checkOrder(t testing.TB, name string, c *Core, q series.Series, params func() Params) {
	t.Helper()
	checkAgainstSorted(t, name, c, q, params, func(p Params) ([]Neighbor, Stats, error) {
		return c.Search(context.Background(), q, p)
	})
}

// checkParts is checkOrder for one search over parts, a split of c
// (splitParts): the query is prepared on the part holding its ID, as a
// sharded index prepares it, and the neighbours carry Pos -1.
func checkParts(t testing.TB, name string, c *Core, parts []Part, q series.Series, params func() Params) {
	t.Helper()
	home := 0
	for i, pt := range parts {
		if _, ok := pt.Core.Pos(q.ID); ok {
			home = i
		}
	}
	checkAgainstSorted(t, name, c, q, params, func(p Params) ([]Neighbor, Stats, error) {
		nbrs, stats, err := SearchParts(context.Background(), q, parts, home, p)
		for i := range nbrs {
			if nbrs[i].Pos != -1 {
				t.Fatalf("%s: neighbour %+v of a multi-part search has a position", name, nbrs[i])
			}
			pos, _ := c.Pos(nbrs[i].ID)
			nbrs[i].Pos = pos
		}
		return nbrs, stats, err
	})
}

// checkAgainstSorted holds search to sortedSearch over c: at one worker,
// identical neighbours and counts; at four, identical neighbours and
// counts that partition the candidates.
func checkAgainstSorted(t testing.TB, name string, c *Core, q series.Series, params func() Params,
	search func(Params) ([]Neighbor, Stats, error)) {
	t.Helper()
	want, wantStats, err := sortedSearch(c, q, params())
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	p := params()
	p.Workers = 1
	got, gotStats, err := search(p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !sameNeighbors(got, want) {
		t.Fatalf("%s: neighbours %+v, sorted reference %+v", name, got, want)
	}
	if countsOf(gotStats) != countsOf(wantStats) {
		t.Fatalf("%s: counts %v, sorted reference %v", name, gotStats, wantStats)
	}
	p = params()
	p.Workers = 4
	got, gotStats, err = search(p)
	if err != nil {
		t.Fatalf("%s, 4 workers: %v", name, err)
	}
	if !sameNeighbors(got, want) {
		t.Fatalf("%s, 4 workers: neighbours %+v, sorted reference %+v", name, got, want)
	}
	if s := gotStats; s.PrunedSketch+s.PrunedKim+s.PrunedKeogh+s.Evaluated != s.Candidates || s.Candidates != wantStats.Candidates {
		t.Fatalf("%s, 4 workers: counts %v do not partition %d candidates", name, s, wantStats.Candidates)
	}
}

// splitParts splits c's collection into n parts for SearchParts: each
// series goes to a random part, under a sequence that ascends with its
// position in c by a random step, so the parts' sequences interleave and
// rank the candidates as c's positions do — and sortedSearch over c is
// the reference ordered by (bound, sequence). Each part's core is built
// over c's backend at c's sketch width; some may be empty.
func splitParts(t testing.TB, rng *rand.Rand, c *Core, n int) []Part {
	t.Helper()
	data := make([][]series.Series, n)
	parts := make([]Part, n)
	var seq uint64
	for i := 0; i < c.Len(); i++ {
		seq += uint64(1 + rng.Intn(3))
		j := rng.Intn(n)
		data[j] = append(data[j], c.Series(i))
		parts[j].Seqs = append(parts[j].Seqs, seq)
	}
	for j := range parts {
		pc, err := New(c.backend, data[j], 4, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := pc.EnableSketches(c.SketchWidth()); err != nil {
			t.Fatal(err)
		}
		parts[j].Core = pc
	}
	return parts
}

// TestLazyOrderMatchesSortedCascade holds the lazy visit — heap order,
// threshold stop and bulk-counted tail — to the sort-everything cascade
// it replaced, bit for bit at one worker; and so one search over the
// collection split into 1 to 4 parts with interleaved sequences.
func TestLazyOrderMatchesSortedCascade(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cores := orderCores(t, rng, 96)
	for _, name := range []string{"windowed", "engine-fcfw", "engine-acaw"} {
		c := cores[name]
		splits := make([][]Part, 4)
		for n := range splits {
			splits[n] = splitParts(t, rng, c, n+1)
		}
		for qi := 0; qi < 4; qi++ {
			// Indexed series (self-excluded by ID) and fresh, ID-less
			// queries of the collection's lengths.
			q := c.Series(rng.Intn(c.Len()))
			if qi%2 == 1 {
				fresh := randomWalks(rng, 1, 0, []int{len(q.Values)})[0]
				q = series.Series{Values: fresh.Values}
			}
			for pname, params := range orderParams(t, c, q, rng) {
				label := fmt.Sprintf("%s/q%d/%s", name, qi, pname)
				checkOrder(t, label, c, q, params)
				for _, parts := range splits {
					checkParts(t, fmt.Sprintf("%s/%d parts", label, len(parts)), c, parts, q, params)
				}
			}
		}
	}
}

// TestLazyOrderNaNBoundsVisited: a NaN LB_Kim bound — reachable only
// through a restored series whose stored endpoints are NaN — is ordered
// after every number and never counted in the pruned tail, so the
// candidate still reaches the stages after Kim. A sketch bound over
// finite query means is never NaN, so the NaN reaches the visit order
// only through a candidate of another length than the query's: the
// engine core mixes lengths, the windowed one meets its NaN at the Kim
// check after stage 0.
func TestLazyOrderNaNBoundsVisited(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const length, width = 48, 8
	wb, _, err := NewWindowedBackend(length, 3)
	if err != nil {
		t.Fatal(err)
	}
	fcfw := core.DefaultOptions()
	fcfw.Band = band.Config{Strategy: band.FixedCoreFixedWidth, WidthFrac: 0.2}
	for _, coll := range []struct {
		name    string
		backend *Backend
		lengths []int
	}{
		{"windowed", wb, []int{length}},
		{"engine-fcfw", NewEngineBackend(core.NewEngine(fcfw), "fcfw", false), []int{40, length, 56}},
	} {
		data := randomWalks(rng, 40, 0, coll.lengths)
		cold := make([]ColdSeries, len(data))
		nanOrdered := 0
		for i, s := range data {
			vals, n := s.Values, len(s.Values)
			env := lower.NewEnvelope(vals, coll.backend.EnvelopeRadius(n))
			sk, err := sketch.FromEnvelope(env, width)
			if err != nil {
				t.Fatal(err)
			}
			cold[i] = ColdSeries{ID: s.ID, Label: s.Label, N: n, First: vals[0], Last: vals[n-1],
				Envelope: env, Sketch: sk, Load: func() ([]float64, error) { return vals, nil }}
			if i%7 == 3 {
				cold[i].First = math.NaN()
				if n != length {
					nanOrdered++
				}
			}
		}
		if (nanOrdered == 0) != (coll.name == "windowed") {
			t.Fatalf("%s: %d NaN endpoints on series of another length than the query's", coll.name, nanOrdered)
		}
		c, err := RestoreCold(coll.backend, cold, width, 4, true)
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 5; qi++ {
			q := series.Series{Values: randomWalks(rng, 1, 0, []int{length})[0].Values}
			for _, k := range []int{1, 3} {
				params := func() Params { p := DefaultParams(); p.K = k; return p }
				checkOrder(t, fmt.Sprintf("%s/q%d/k=%d", coll.name, qi, k), c, q, params)
			}
		}
	}
}

// edgeBounds are the floats whose order the visit key must keep: both
// zeros, the subnormal extremes, ordinary values, the largest finite,
// +Inf, NaNs of either sign bit and payload, and — though no bound is
// negative — negative values down to −Inf.
var edgeBounds = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
	0x1p-1022 - math.SmallestNonzeroFloat64, 0x1p-1022, 0.5, 1, 1, math.Nextafter(1, 2), 2.5,
	math.MaxFloat64, math.Inf(1), math.NaN(), math.Copysign(math.NaN(), -1),
	math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000001),
	-math.SmallestNonzeroFloat64, -1, -math.MaxFloat64, math.Inf(-1),
}

// TestVisitKeyOrdersAsFloats: on every pair of edge floats, at equal and
// unequal positions, candidate.before over visit keys answers what the
// float order beforeFloat answers, and exceeds(key, t) is bound > t.
func TestVisitKeyOrdersAsFloats(t *testing.T) {
	for i, a := range edgeBounds {
		for j, b := range edgeBounds {
			for _, pos := range [][2]int{{1, 2}, {2, 1}} {
				ra, rb := refCandidate{pos: pos[0], bound: a}, refCandidate{pos: pos[1], bound: b}
				ka, kb := candidate{key: visitKey(a), rank: pos[0]}, candidate{key: visitKey(b), rank: pos[1]}
				if got, want := ka.before(&kb), beforeFloat(ra, rb); got != want {
					t.Errorf("edge %d (%v, pos %d) before edge %d (%v, pos %d): keys say %v, floats %v",
						i, a, pos[0], j, b, pos[1], got, want)
				}
			}
			if got, want := exceeds(visitKey(a), b), a > b; got != want {
				t.Errorf("exceeds(%v, %v) = %v, want %v", a, b, got, want)
			}
		}
	}
	if visitKey(math.Copysign(0, -1)) != visitKey(0) {
		t.Errorf("-0 keys as %#x, +0 as %#x", visitKey(math.Copysign(0, -1)), visitKey(0))
	}
}

// TestCandQueueOrder: popping the heap yields exactly the sorted order of
// the float bounds — ascending bound, NaN after every number, ties by
// position.
func TestCandQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bounds := append([]float64{1, 2.5}, edgeBounds...)
	for iter := 0; iter < 200; iter++ {
		n := rng.Intn(64)
		refs := make([]refCandidate, n)
		for i := range refs {
			refs[i] = refCandidate{pos: i, bound: bounds[rng.Intn(len(bounds))]}
			if rng.Intn(2) == 0 {
				refs[i].bound = rng.Float64()
			}
		}
		rng.Shuffle(n, func(a, b int) { refs[a], refs[b] = refs[b], refs[a] })
		cands := make([]candidate, n)
		for i, r := range refs {
			cands[i] = candidate{key: visitKey(r.bound), rank: r.pos}
		}
		sort.Slice(refs, func(a, b int) bool { return beforeFloat(refs[a], refs[b]) })
		queue := candQueue(cands)
		queue.init()
		for i := range refs {
			got := queue.pop()
			if got.rank != refs[i].pos {
				t.Fatalf("iter %d pop %d: rank %d (key %#x), want %d (bound %v)",
					iter, i, got.rank, got.key, refs[i].pos, refs[i].bound)
			}
		}
		if len(queue) != 0 {
			t.Fatalf("iter %d: %d candidates left after %d pops", iter, len(queue), n)
		}
	}
}

// FuzzCascadeOrderDifferential is TestLazyOrderMatchesSortedCascade over
// fuzzed collections and parameters: the lazy visit, and one search over
// the collection split into 1 to 4 parts (mode/16%4 + 1), must equal the
// sorted reference at one worker and partition the candidates at four.
func FuzzCascadeOrderDifferential(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(5), uint8(0))
	f.Add(int64(7), uint8(3), uint8(0), uint8(1))
	f.Add(int64(42), uint8(90), uint8(1), uint8(6))
	f.Add(int64(5), uint8(60), uint8(4), uint8(0x17))
	f.Add(int64(9), uint8(33), uint8(2), uint8(0x2c))
	f.Add(int64(11), uint8(80), uint8(7), uint8(0x31))
	f.Fuzz(func(t *testing.T, seed int64, n8, k8, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8)%96 + 1
		lengths := []int{24}
		var b *Backend
		if mode%2 == 0 {
			wb, _, err := NewWindowedBackend(24, int(mode/2)%5)
			if err != nil {
				t.Fatal(err)
			}
			b = wb
		} else {
			opts := core.DefaultOptions()
			opts.Band = band.Config{Strategy: band.FixedCoreFixedWidth, WidthFrac: 0.25}
			b = NewEngineBackend(core.NewEngine(opts), "fcfw", false)
			lengths = []int{20, 24, 28}
		}
		c, err := New(b, randomWalks(rng, n, n/4, lengths), 4, true)
		if err != nil {
			t.Fatal(err)
		}
		// Half the modes keep the default sketch width; the rest pick one
		// from 1 to 12.
		if mode%4 < 2 {
			if err := c.EnableSketches(int(mode/4)%12 + 1); err != nil {
				t.Fatal(err)
			}
		}
		q := c.Series(rng.Intn(n))
		if mode%8 >= 4 {
			q = series.Series{Values: randomWalks(rng, 1, 0, []int{24})[0].Values}
		}
		k := int(k8)%(n+2) - 1 // -1 and 0 are range searches
		limit := math.Inf(1)
		if k <= 0 {
			limit = rng.Float64() * 40 * float64(len(q.Values))
		}
		exclude := -1
		if mode%16 >= 8 {
			exclude = rng.Intn(n)
		}
		params := func() Params {
			p := DefaultParams()
			p.K, p.Exclude, p.Threshold, p.ThresholdSet = k, exclude, limit, k <= 0
			return p
		}
		checkOrder(t, "fuzz", c, q, params)
		checkParts(t, "fuzz/parts", c, splitParts(t, rng, c, int(mode/16)%4+1), q, params)
	})
}
