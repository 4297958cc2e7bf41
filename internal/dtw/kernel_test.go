package dtw

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// kernelRandomSeries draws n values from a mix of scales so sums exercise many
// exponents (rounding differences would surface as bit mismatches).
func kernelRandomSeries(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	scale := math.Pow(10, float64(rng.Intn(5)-2))
	for i := range v {
		v[i] = (rng.Float64()*2 - 1) * scale
	}
	return v
}

// kernelRandomBand builds a random normalized band for an n-by-m grid: random
// per-row intervals (occasionally degenerate or disjoint before
// normalization) repaired by Normalize, exactly how band builders
// produce them.
func kernelRandomBand(rng *rand.Rand, n, m int) Band {
	b := Band{Lo: make([]int, n), Hi: make([]int, n), M: m}
	for i := 0; i < n; i++ {
		a := rng.Intn(m)
		c := rng.Intn(m)
		if a > c {
			a, c = c, a
		}
		if rng.Intn(4) == 0 {
			c = a // degenerate single-cell row
		}
		b.Lo[i], b.Hi[i] = a, c
	}
	return b.Normalize()
}

// randomBudget mixes the abandonment regimes: sometimes +Inf (never
// abandons), sometimes 0 (abandons almost immediately), mostly a budget
// around the true distance — or, when the pair has none (a non-finite
// input), around the series length.
func randomBudget(rng *rand.Rand, exact float64, n int) float64 {
	if math.IsNaN(exact) || math.IsInf(exact, 0) {
		exact = float64(n)
	}
	switch rng.Intn(4) {
	case 0:
		return math.Inf(1)
	case 1:
		return 0
	default:
		return exact * (0.1 + 1.4*rng.Float64())
	}
}

// checkKernelAgainstGeneric runs the early-abandoning banded DP and holds
// the kernel to the row-at-a-time reference, BandedGeneric: the same
// verdict on whether the band admits a path, the same abandoned flag, the
// same distance (or, abandoned, the same cost just over the budget) bit
// for bit. cells is what each filled, and there the two may part: the
// reference prunes to the cell, a strip holds one left bound for its
// four rows and runs each row's end against the filled end of the row
// above, so the kernel fills at least the reference's cells and at most
// the band's — and exactly the reference's wherever no strip can have
// run: non-finite inputs, a band under pruneMinWidth, a budget that
// prunes nothing.
func checkKernelAgainstGeneric(t *testing.T, x, y []float64, b Band, budget float64, wsSpec, wsGen *Workspace) {
	t.Helper()
	gd, gc, ga, gerr := BandedGeneric(x, y, b, budget, wsGen)
	sd, sc, sa, serr := BandedAbandonWS(x, y, b, nil, budget, wsSpec)
	perRow := !finite(x) || !finite(y) || b.maxWidth() < pruneMinWidth || !(budget < math.Inf(1))
	switch {
	case (gerr == nil) != (serr == nil):
		t.Fatalf("n=%d m=%d budget=%v: error mismatch: reference %v, kernel %v", len(x), len(y), budget, gerr, serr)
	case math.Float64bits(gd) != math.Float64bits(sd) || ga != sa:
		t.Fatalf("n=%d m=%d budget=%v: reference (%v, abandoned %v), kernel (%v, abandoned %v)", len(x), len(y), budget, gd, ga, sd, sa)
	case sc < gc || sc > b.Cells() || (perRow && sc != gc):
		t.Fatalf("n=%d m=%d budget=%v (per-row only: %v): reference filled %d cells, kernel %d, of the band's %d",
			len(x), len(y), budget, perRow, gc, sc, b.Cells())
	}
}

// TestKernelDifferentialBandedAbandon is the kernel's differential
// property test: on random series, every StripBand shape, grids from 1×1
// to 300×300 and random budgets — a third of the cases with a NaN, an
// infinity or an overflowing ±MaxFloat64 planted in the inputs — the
// banded kernel is held to the reference by checkKernelAgainstGeneric.
func TestKernelDifferentialBandedAbandon(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var wsSpec, wsGen Workspace
	for trial := 0; trial < 900; trial++ {
		n, m := StripShape(rng)
		x := kernelRandomSeries(rng, n)
		y := kernelRandomSeries(rng, m)
		b := StripBand(rng, n, m, trial)
		if trial%3 == 0 {
			InjectNonFinite(rng, x, y, 1+trial/3)
		}
		exact, _, _, _ := BandedGeneric(x, y, b, math.Inf(1), &wsGen)
		checkKernelAgainstGeneric(t, x, y, b, randomBudget(rng, exact, n), &wsSpec, &wsGen)
	}
}

// TestKernelDifferentialBandedPath pins the flat-backed BandedWithPath to
// the banded kernel, non-finite inputs included, where the full-matrix
// oracle has nothing to say: whenever it recovers a path, the distance
// bits and cell count are Banded's and the path is a warp path. On finite
// inputs — no NaN can arise — the path also stays inside the band, and
// the two agree on whether the band admits a path at all; a NaN cost
// loses every comparison of the backtrack, which may then step through
// cells outside the band.
func TestKernelDifferentialBandedPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n, m := StripShape(rng)
		n, m = 1+n%80, 1+m%80
		x := kernelRandomSeries(rng, n)
		y := kernelRandomSeries(rng, m)
		b := StripBand(rng, n, m, trial)
		kind := 0
		if trial%3 == 0 {
			kind = 1 + trial/3
			InjectNonFinite(rng, x, y, kind)
		}

		d, cells, err := Banded(x, y, b)
		res, perr := BandedWithPath(x, y, b)
		finiteInputs := kind%NonFiniteKinds == 0 || kind%NonFiniteKinds >= 4
		if perr != nil {
			if err == nil && finiteInputs {
				t.Fatalf("trial %d: finite inputs, BandedWithPath failed (%v) where Banded returned %v", trial, perr, d)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: BandedWithPath returned %v where Banded failed: %v", trial, res.Distance, err)
		}
		if math.Float64bits(d) != math.Float64bits(res.Distance) || cells != res.Cells {
			t.Fatalf("trial %d: Banded (%v, %d cells), BandedWithPath (%v, %d cells)", trial, d, cells, res.Distance, res.Cells)
		}
		if err := res.Path.Validate(n, m); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, s := range res.Path {
			if finiteInputs && !b.Contains(s.I, s.J) {
				t.Fatalf("trial %d: path leaves the band at (%d,%d)", trial, s.I, s.J)
			}
		}
	}
}

// TestKernelDifferentialFullDistance pins Distance — the banded kernel
// over the full band, strips and all — against the reference over the
// full band, non-finite inputs included: a grid the reference finds no
// finite path through has distance +Inf.
func TestKernelDifferentialFullDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		n, m := StripShape(rng)
		x := kernelRandomSeries(rng, 1+n%120)
		y := kernelRandomSeries(rng, 1+m%120)
		if trial%3 == 0 {
			InjectNonFinite(rng, x, y, 1+trial/3)
		}
		g, _, _, err := BandedGeneric(x, y, FullBand(len(x), len(y)), math.Inf(1), nil)
		if err != nil {
			g = math.Inf(1)
		}
		s, err := Distance(x, y, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(g) != math.Float64bits(s) {
			t.Fatalf("trial %d: distance bits differ: %v vs %v", trial, g, s)
		}
	}
}

// TestKernelDifferentialSubsequence pins the offline subsequence DP —
// values, start pointer and end — against the reference column advance:
// with emission off, a Spring's Best after the whole stream is the
// offline match, bit for bit.
func TestKernelDifferentialSubsequence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var ws Workspace
	for trial := 0; trial < 150; trial++ {
		q := kernelRandomSeries(rng, 1+rng.Intn(30))
		s := kernelRandomSeries(rng, 1+rng.Intn(120))
		gen, err := NewSpring(q, SpringConfig{Threshold: math.Inf(1)})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range s {
			gen.appendGeneric(v)
		}
		g, _ := gen.Best()
		sp, err := SubsequenceWS(q, s, &ws)
		if err != nil {
			t.Fatal(err)
		}
		if g.Start != sp.Start || g.End != sp.End ||
			math.Float64bits(g.Distance) != math.Float64bits(sp.Distance) {
			t.Fatalf("trial %d: matches differ: reference %+v, SubsequenceWS %+v", trial, g, sp)
		}
	}
}

// TestKernelDifferentialSpring runs two springs — the reference column
// advance and Append — over the same random stream with random thresholds
// and gaps, comparing every emission, the running best and the final
// flush.
func TestKernelDifferentialSpring(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 60; trial++ {
		q := kernelRandomSeries(rng, 1+rng.Intn(20))
		stream := kernelRandomSeries(rng, 50+rng.Intn(400))
		threshold := math.Inf(1)
		if rng.Intn(2) == 0 {
			threshold = float64(len(q)) * 0.2 * rng.Float64()
		}
		minGap := rng.Intn(3)

		cfg := SpringConfig{Threshold: threshold, MinGap: minGap}
		gen, err := NewSpring(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := NewSpring(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for ti, v := range stream {
			gm, gok := gen.appendGeneric(v)
			sm, sok := spec.Append(v)
			if gok != sok || gm != sm {
				t.Fatalf("trial %d point %d: emissions differ: reference (%+v,%v) Append (%+v,%v)",
					trial, ti, gm, gok, sm, sok)
			}
		}
		gb, gok := gen.Best()
		sb, sok := spec.Best()
		if gok != sok || gb.Start != sb.Start || gb.End != sb.End ||
			math.Float64bits(gb.Distance) != math.Float64bits(sb.Distance) {
			t.Fatalf("trial %d: best differs: reference (%+v,%v) Append (%+v,%v)", trial, gb, gok, sb, sok)
		}
		gf, gok := gen.Flush()
		sf, sok := spec.Flush()
		if gok != sok || gf != sf {
			t.Fatalf("trial %d: flush differs: reference (%+v,%v) Append (%+v,%v)", trial, gf, gok, sf, sok)
		}
	}
}

// TestBandedWithPathNonFiniteTerminates pins the backtrack's exit: NaN
// costs lose every comparison, and the walk used to step left past column
// 0 and on forever, appending to the path until memory ran out. It must
// return promptly — an error, or a valid path when the NaN cells happen to
// lie off the optimal one.
func TestBandedWithPathNonFiniteTerminates(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct{ x, y []float64 }{
		{[]float64{0, nan, 1, 2}, []float64{0, 1, nan, 2}},
		{[]float64{nan, nan, nan}, []float64{1, 2, 3}},
		{[]float64{0, inf, 1}, []float64{0, inf, 1}},
		{[]float64{0, 1, 2, 3}, []float64{0, 1, nan, 3}},
	} {
		res, err := BandedWithPath(c.x, c.y, FullBand(len(c.x), len(c.y)))
		if err == nil {
			if verr := res.Path.Validate(len(c.x), len(c.y)); verr != nil {
				t.Errorf("x=%v y=%v: no error and an invalid path: %v", c.x, c.y, verr)
			}
		}
	}
}

// cancelAtPoll is a context that reports cancellation from its at-th Err
// call on, so a test can cancel a DP at an exact poll.
type cancelAtPoll struct {
	context.Context
	polls, at int
}

func (c *cancelAtPoll) Err() error {
	if c.polls++; c.polls >= c.at {
		return context.Canceled
	}
	return nil
}

// TestBandedAbandonCtxPollInterval cancels the DP at its first, second,
// third… poll and reads off the returned cell count how many rows were
// filled by then: the first poll precedes row 0, and no two polls (nor
// the last poll and the end) are more than cancelCheckRows rows apart —
// on the strip path, where rows advance four at a time, as on the per-row
// path of a narrow band.
func TestBandedAbandonCtxPollInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, tc := range []struct {
		name string
		band Band
	}{
		{"strips", FullBand(70, 40)},
		{"strips, n mod 4 = 3", FullBand(72, 40)},
		{"narrow band", SakoeChibaRadius(70, 70, 3)},
		{"strips and single rows mixed", StripBand(rng, 90, 120, 2)},
	} {
		b := tc.band
		n := b.N()
		x, y := kernelRandomSeries(rng, n), kernelRandomSeries(rng, b.M)
		rowsOf := map[int]int{0: 0} // cells filled -> rows filled
		for i, cells := 0, 0; i < n; i++ {
			cells += b.Hi[i] - b.Lo[i] + 1
			rowsOf[cells] = i + 1
		}
		if tc.name != "narrow band" && StripRowsOf(b) == 0 {
			t.Fatalf("%s: the band never reaches the strip", tc.name)
		}
		last := 0
		for at := 1; ; at++ {
			ctx := &cancelAtPoll{Context: context.Background(), at: at}
			_, cells, _, err := BandedAbandonCtx(ctx, x, y, b, math.Inf(1), nil)
			rows, whole := rowsOf[cells]
			if !whole {
				t.Fatalf("%s: poll %d returned %d cells, not a whole number of rows", tc.name, at, cells)
			}
			if rows-last > cancelCheckRows {
				t.Fatalf("%s: %d rows between poll %d and the next (or the end), want at most %d", tc.name, rows-last, at-1, cancelCheckRows)
			}
			if err == nil {
				if rows != n {
					t.Fatalf("%s: finished after %d of %d rows", tc.name, rows, n)
				}
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: poll %d: error %v, want context.Canceled", tc.name, at, err)
			}
			if at == 1 && rows != 0 {
				t.Fatalf("%s: %d rows filled before the first poll", tc.name, rows)
			}
			last = rows
		}
	}
}

// TestBandedWithPathAllocs pins the flat-backing satellite: allocations
// must not grow with the row count (the per-row make slices used to cost
// n allocations).
func TestBandedWithPathAllocs(t *testing.T) {
	measure := func(n, m int) float64 {
		rng := rand.New(rand.NewSource(int64(n)))
		x := kernelRandomSeries(rng, n)
		y := kernelRandomSeries(rng, m)
		b := SakoeChiba(n, m, 0.2)
		return testing.AllocsPerRun(20, func() {
			if _, err := BandedWithPath(x, y, b); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := measure(40, 40)
	large := measure(400, 400)
	if small != large {
		t.Errorf("BandedWithPath allocations grow with size: %v at n=40, %v at n=400", small, large)
	}
	// Flat DP backing, row offsets, path, and at most a couple of
	// incidental headers — anything near the row count means the flat
	// backing regressed.
	if large > 6 {
		t.Errorf("BandedWithPath allocates %v times per call, want <= 6", large)
	}
}

func BenchmarkSpringAppendKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	q := kernelRandomSeries(rng, 150)
	stream := kernelRandomSeries(rng, 4096)
	sp, err := NewSpring(q, SpringConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp.Append(stream[i%len(stream)])
	}
}

// BenchmarkSpringAppendFiltered times one spring in the hub-live shape of
// the benchmark module: a 128-point query amp·|sin| with amp in
// [0.5, 3.5], threshold 0.25, over in-band noise (σ 0.05, runs of 1–48
// points) with a slightly warped plant of the query as one chunk in 16.
// No point is far enough out to skip, so "pruned" (AppendFiltered) times
// the pruned column advance and "plain" (Append) the full one.
func BenchmarkSpringAppendFiltered(b *testing.B) {
	const n = 128
	rng := rand.New(rand.NewSource(42))
	amp := 0.5 + 3*rng.Float64()
	phase := rng.Float64() * math.Pi
	q := make([]float64, n)
	for j := range q {
		q[j] = amp * math.Abs(math.Sin(phase+math.Pi*float64(j)/float64(n-1)))
	}
	var stream []float64
	for len(stream) < 1<<14 {
		if rng.Intn(16) == 0 {
			for _, v := range q {
				stream = append(stream, v+0.01*rng.NormFloat64())
				if rng.Intn(8) == 0 {
					stream = append(stream, v) // warp: repeat a point
				}
			}
			continue
		}
		for i := rng.Intn(48); i >= 0; i-- {
			stream = append(stream, 0.05*rng.NormFloat64())
		}
	}
	for _, bc := range []struct {
		name   string
		append func(*Spring, float64) (SubsequenceMatch, bool)
	}{{"plain", (*Spring).Append}, {"pruned", (*Spring).AppendFiltered}} {
		b.Run(bc.name, func(b *testing.B) {
			sp, err := NewSpring(q, SpringConfig{Threshold: 0.25, MinGap: n, Prefilter: true})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.append(sp, stream[i%len(stream)])
			}
		})
	}
}

// TestNaNCellIsDead pins what "dead" means where a NaN sits at the edge
// of the live range: two equal ramps but for a NaN at y[25], so column 25
// is NaN in every row, under the full band and a budget of 1, which keeps
// the live range within a column of the diagonal — up against the NaN
// column from row 24 on. A cell is live only if it compares <= budget; a
// scan that asked "not > budget" would take the NaN for live, carry the
// range one column further than the reference does and fill a cell
// more on the next row. Row 26 has no live cell left and abandons.
func TestNaNCellIsDead(t *testing.T) {
	const n = 40
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], y[i] = float64(i), float64(i)
	}
	y[25] = math.NaN()
	b := FullBand(n, n)
	var wsSpec, wsGen Workspace
	checkKernelAgainstGeneric(t, x, y, b, 1, &wsSpec, &wsGen)
	if _, cells, abandoned, err := BandedAbandonWS(x, y, b, nil, 1, &wsSpec); err != nil || !abandoned || cells >= 27*6 {
		t.Fatalf("(%d cells, abandoned %v, err %v), want abandonment on row 26 at under six cells a row", cells, abandoned, err)
	}
}
