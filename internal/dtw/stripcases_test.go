package dtw

import (
	"math"
	"math/rand"
	"testing"
)

// Case generators for the strip path of the squared banded kernel, shared
// by the in-package differential suites (kernel_test.go, fuzz_test.go) and
// the external oracle suite (oracle_test.go) — hence exported from a test
// file. kernelRandomBand's rows are mostly narrower than any joint range,
// so on its own it leaves fillStripSquared nearly unreached.

// StripBandKinds is the number of shapes StripBand builds. It stays prime
// to 3: the trial-indexed suites draw kind trial mod StripBandKinds (the
// oracle's, mod len(oracleStrategies)+StripBandKinds, that length a
// multiple of 3) and plant non-finite values, or pick the symmetric case,
// on every third trial, which a multiple of 3 would tie to a third of the
// kinds (TestStripCasesReachTheStrip pins it).
const StripBandKinds = 10

// NarrowBandKind is the first of StripBand's two shapes aimed away from
// the strip, NarrowBandKind and NarrowBandKind+1, the last it builds: the
// narrow-band row loop's (see fillNarrowSquared).
const NarrowBandKind = 8

// PruneMinWidth is pruneMinWidth for the oracle: under a finite budget a
// band whose widest row is at least this wide is pruned to its live
// range, a narrower one filled in whole rows.
const PruneMinWidth = pruneMinWidth

// StripBand builds the normalized band of shape kind (mod StripBandKinds)
// over an n×m grid:
//
//	0  random intervals (kernelRandomBand): ragged, mostly per-row
//	1  wide, drifting: a random-walk core with a slowly changing radius
//	2  narrow↔wide: blocks of 1..9 rows alternating radius ≤ 2 and ≥ 12,
//	   so transitions fall on every row of a strip
//	3  wide with interval jumps: a few rows leap ahead of the row above
//	4  the full band: joint range m-4, the strip threshold at m = 12
//	5  Sakoe-Chiba, radius 6..9: joint range 2·radius-7, either side of
//	   the threshold
//	6  wide, drifting left: Lo decreases, the lean the skew follows
//	7  wide, stepping back: every dozenth row or so ends left of the
//	   diagonal, so under a tight budget Hi falls left of the live range
//	   the rows above carried down (Normalize promises no monotone Hi)
//	8  narrow (NarrowBandKind): Sakoe-Chiba, radius 0..5; on a square
//	   grid every row after row 0 lies under the row above
//	9  narrow, jumping: kind 8 with every eighth row or so shifted one
//	   column right or one or two left, so rows jump ahead of the row
//	   above or step back of it
//
// Both narrow kinds keep every row under pruneMinWidth wherever the
// diagonal climbs at most a column or two a row.
func StripBand(rng *rand.Rand, n, m, kind int) Band {
	b := Band{Lo: make([]int, n), Hi: make([]int, n), M: m}
	switch kind % StripBandKinds {
	case 0:
		return kernelRandomBand(rng, n, m)
	case 1:
		c, r := 0.0, 12+rng.Intn(1+m/4)
		for i := range b.Lo {
			c += float64(m)/float64(n) + rng.NormFloat64()
			if rng.Intn(6) == 0 {
				r += rng.Intn(5) - 2
			}
			r = max(r, 8)
			b.Lo[i], b.Hi[i] = int(c)-r, int(c)+r
		}
	case 2:
		wide := rng.Intn(2) == 0
		for i := 0; i < n; {
			r := rng.Intn(3)
			if wide {
				r = 12 + rng.Intn(20)
			}
			for end := min(n, i+1+rng.Intn(9)); i < end; i++ {
				c := diagonalColumn(i, n, m)
				b.Lo[i], b.Hi[i] = c-r, c+r
			}
			wide = !wide
		}
	case 3:
		r := 10 + rng.Intn(1+m/5)
		shift := 0
		for i := range b.Lo {
			if rng.Intn(9) == 0 {
				shift += rng.Intn(2*r + 2)
			}
			c := diagonalColumn(i, n, m) + shift
			b.Lo[i], b.Hi[i] = c-r, c+r
		}
	case 4:
		return FullBand(n, m)
	case 5:
		return SakoeChibaRadius(n, m, 6+rng.Intn(4))
	case 6:
		r := 8 + rng.Intn(1+m/4)
		for i := range b.Lo {
			c := m - 1 - diagonalColumn(i, n, m)
			b.Lo[i], b.Hi[i] = c-r, c+r
		}
	case 7:
		r := 10 + rng.Intn(1+m/5)
		for i := range b.Lo {
			c := diagonalColumn(i, n, m)
			b.Lo[i], b.Hi[i] = c-r, c+r
			if rng.Intn(12) == 0 {
				b.Hi[i] = c - r + rng.Intn(r)
			}
		}
	case 8, 9:
		r := rng.Intn(6)
		for i := range b.Lo {
			c := diagonalColumn(i, n, m)
			if kind%StripBandKinds == 9 && rng.Intn(8) == 0 {
				c += []int{-2, -1, 1}[rng.Intn(3)]
			}
			b.Lo[i], b.Hi[i] = c-r, c+r
		}
	}
	return b.Normalize()
}

// StepBackCase is the hand-built case of a band that steps back left of
// the live range: two equal ramps, whose zero-cost path is the diagonal,
// under a band that is the whole grid except for row 20, which ends at
// column 2 — normalized as it stands. Under the budget, 1, the live range
// of row 19 is columns 18..20, so row 20 has no cell with a live
// predecessor: it starts right of where it ends. The banded distance,
// which must reach row 20 by column 2, is far over the budget.
func StepBackCase() (x, y []float64, b Band, budget float64) {
	const n = 40
	x, y = make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], y[i] = float64(i), float64(i)
	}
	b = FullBand(n, n)
	b.Hi[20] = 2
	return x, y, b.Normalize(), 1
}

// StripShape draws grid dimensions that exercise the strip's row grouping:
// up to 300 rows and columns (so every n mod 4, strips by the dozen and
// unequal lengths), one grid in four square, one in eight with 1..5 rows.
func StripShape(rng *rand.Rand) (n, m int) {
	n, m = 1+rng.Intn(300), 1+rng.Intn(300)
	switch rng.Intn(8) {
	case 0:
		n = 1 + rng.Intn(5)
	case 1, 2:
		m = n
	}
	return n, m
}

// NonFiniteKinds is the number of injections InjectNonFinite knows,
// counting kind 0, which injects nothing.
const NonFiniteKinds = 6

// InjectNonFinite overwrites a few random points of x or y with the
// special value of kind (mod NonFiniteKinds): 1 NaN, 2 +Inf, 3 -Inf,
// 4 and 5 ±MaxFloat64 — finite inputs whose differences overflow to
// +Inf — and 0 nothing. The first three must keep the kernel off the
// strip path; the last two run on it.
func InjectNonFinite(rng *rand.Rand, x, y []float64, kind int) {
	special := [NonFiniteKinds]float64{0, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64}
	k := kind % NonFiniteKinds
	if k == 0 {
		return
	}
	for c := 1 + rng.Intn(3); c > 0; c-- {
		v := x
		if rng.Intn(2) == 0 {
			v = y
		}
		v[rng.Intn(len(v))] = special[k]
		if k >= 4 && rng.Intn(2) == 0 {
			special[k] = -special[k] // opposite signs: the difference itself overflows
		}
	}
}

// StripRowsOf replays bandedAbandonSquared's strip decisions over b (for
// finite inputs) and returns how many rows run inside strips.
func StripRowsOf(b Band) int {
	n, rows := b.N(), 0
	prevLo, prevHi := -1, -1
	for i := 0; i < n; {
		k := 1
		if _, _, ok := stripRange(b, i, 0, prevLo, prevHi); ok {
			k = stripRows
			rows += k
		}
		i += k
		prevLo, prevHi = b.Lo[i-1], b.Hi[i-1]
	}
	return rows
}

// TestStripCasesReachTheStrip pins that the generators do what they are
// for: every shape but the random and the narrow ones runs a good share
// of its rows in strips, the narrow ones on a square grid none and every
// row under pruneMinWidth, the full band
// sits exactly on the threshold at m = 12 and one below it at m = 11, and
// no grid of fewer than five rows holds a strip.
func TestStripCasesReachTheStrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for kind := 1; kind < NarrowBandKind; kind++ {
		rows, total := 0, 0
		for trial := 0; trial < 20; trial++ {
			n, m := 40+rng.Intn(260), 40+rng.Intn(260)
			b := StripBand(rng, n, m, kind)
			if err := b.Validate(); err != nil {
				t.Fatalf("kind %d: %v", kind, err)
			}
			rows += StripRowsOf(b)
			total += n
		}
		// A fifth of the rows: kinds 2 and 3 break strips up on purpose,
		// kind 5 straddles the threshold.
		if rows*5 < total {
			t.Errorf("kind %d: only %d of %d rows run in strips", kind, rows, total)
		}
	}
	for trial := 0; trial < 40; trial++ {
		n, kind := 1+rng.Intn(300), NarrowBandKind+trial%2
		if b := StripBand(rng, n, n, kind); b.maxWidth() >= pruneMinWidth || StripRowsOf(b) != 0 {
			t.Fatalf("narrow kind %d over %dx%d: widest row %d, %d rows in strips", kind, n, n, b.maxWidth(), StripRowsOf(b))
		}
	}
	if StripBandKinds%3 == 0 {
		t.Errorf("StripBandKinds = %d, a multiple of 3: the every-third-trial cases of the trial-indexed suites fall on a third of the kinds", StripBandKinds)
	}
	for _, n := range []int{5, 6, 7, 8, 9, 64} {
		if got, want := StripRowsOf(FullBand(n, stripMinSteps+stripRows)), (n-1)/stripRows*stripRows; got != want {
			t.Errorf("full %dx%d band (joint range = threshold): %d rows in strips, want %d", n, stripMinSteps+stripRows, got, want)
		}
		if got := StripRowsOf(FullBand(n, stripMinSteps+stripRows-1)); got != 0 {
			t.Errorf("full %dx%d band (joint range one below the threshold): %d rows in strips, want 0", n, stripMinSteps+stripRows-1, got)
		}
	}
	for n := 1; n <= stripRows; n++ {
		if got := StripRowsOf(FullBand(n, 64)); got != 0 {
			t.Errorf("%d rows cannot hold a strip below the origin row, got %d strip rows", n, got)
		}
	}
}
