package dtw

import (
	"math"
	"math/rand"
	"testing"
)

// Differential fuzz targets: the kernels must stay bit-identical to the
// row-at-a-time references of reference_test.go on any input.
// These wrap the same properties as the TestKernelDifferential* suites
// but let the fuzzer drive the shape parameters; CI runs each for a
// bounded ~30s in the fuzz-smoke lane.

// FuzzBandedKernelDifferential holds the early-abandoning banded kernel to
// the row-at-a-time reference (checkKernelAgainstGeneric) on
// fuzzer-chosen shapes (up to 320×320, so
// strips by the dozen and every n mod 4), StripBand shapes, budgets (as a
// fraction of the true distance, which steers the abandoning row through
// every position of a strip) and planted non-finite values.
func FuzzBandedKernelDifferential(f *testing.F) {
	f.Add(int64(1), uint16(7), uint16(7), uint8(0), uint8(255), uint8(0))
	f.Add(int64(42), uint16(31), uint16(16), uint8(0), uint8(0), uint8(0))
	f.Add(int64(7), uint16(47), uint16(2), uint8(0), uint8(100), uint8(0))
	f.Add(int64(99), uint16(0), uint16(0), uint8(0), uint8(200), uint8(0))
	for kind := 1; kind < StripBandKinds; kind++ { // the strip shapes at 256+ rows, every n mod 4
		f.Add(int64(200+kind), uint16(255+kind), uint16(299-7*kind), uint8(kind), uint8(30*kind), uint8(0))
	}
	f.Add(int64(300), uint16(63), uint16(11), uint8(4), uint8(120), uint8(0)) // 64×12 full band: joint range exactly the strip threshold
	f.Add(int64(301), uint16(63), uint16(10), uint8(4), uint8(120), uint8(0)) // 64×11: one below
	for n := uint16(0); n < 5; n++ {                                          // 1..5 rows: no strip until the fifth
		f.Add(int64(310)+int64(n), n, uint16(39), uint8(4), uint8(150), uint8(0))
	}
	// NaN, +Inf, -Inf and ±MaxFloat64 planted in bands that would strip.
	// The seeds of the first three are ones where the strip's builtin min
	// and the reference's < cascade do part ways, so they fail if such inputs
	// ever reach the strip.
	f.Add(int64(17), uint16(96), uint16(80), uint8(1), uint8(255), uint8(1))
	f.Add(int64(47), uint16(96), uint16(80), uint8(1), uint8(255), uint8(1))
	f.Add(int64(1), uint16(96), uint16(80), uint8(1), uint8(255), uint8(2))
	f.Add(int64(2), uint16(33), uint16(33), uint8(4), uint8(255), uint8(2))
	f.Add(int64(1), uint16(96), uint16(80), uint8(1), uint8(255), uint8(3))
	f.Add(int64(346), uint16(33), uint16(33), uint8(2), uint8(255), uint8(3))
	for special := uint8(4); special < NonFiniteKinds; special++ {
		f.Add(int64(400)+int64(special), uint16(96), uint16(80), uint8(1), uint8(180), special)
		f.Add(int64(410)+int64(special), uint16(33), uint16(33), uint8(4), uint8(255), special)
	}
	f.Fuzz(func(t *testing.T, seed int64, n16, m16 uint16, kind, bsel, special uint8) {
		n := int(n16)%320 + 1
		m := int(m16)%320 + 1
		rng := rand.New(rand.NewSource(seed))
		x := kernelRandomSeries(rng, n)
		y := kernelRandomSeries(rng, m)
		b := StripBand(rng, n, m, int(kind))
		InjectNonFinite(rng, x, y, int(special))
		var wsS, wsG Workspace
		budget := math.Inf(1)
		if bsel < 250 {
			exact, _, _, _ := BandedGeneric(x, y, b, math.Inf(1), &wsG)
			if math.IsNaN(exact) || math.IsInf(exact, 0) {
				exact = float64(n)
			}
			budget = exact * float64(bsel) / 200
		}
		checkKernelAgainstGeneric(t, x, y, b, budget, &wsS, &wsG)
	})
}

// FuzzSpringDifferential compares Append with the reference column
// advance of the SPRING streaming DP: every emitted match and the final
// flush must agree bit for bit.
func FuzzSpringDifferential(f *testing.F) {
	f.Add(int64(7), uint8(8), uint8(64), false)
	f.Add(int64(3), uint8(1), uint8(1), true)
	f.Add(int64(11), uint8(15), uint8(200), true)
	f.Fuzz(func(t *testing.T, seed int64, q8, s8 uint8, thresholded bool) {
		qn := int(q8)%16 + 1
		sn := int(s8)%200 + 1
		rng := rand.New(rand.NewSource(seed))
		q := kernelRandomSeries(rng, qn)
		stream := kernelRandomSeries(rng, sn)
		threshold := math.Inf(1)
		if thresholded {
			threshold = rng.Float64() * float64(qn)
		}
		cfg := SpringConfig{Threshold: threshold, MinGap: rng.Intn(3)}
		spS, err := NewSpring(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		spG, err := NewSpring(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range stream {
			mS, okS := spS.Append(v)
			mG, okG := spG.appendGeneric(v)
			if okS != okG || mS != mG {
				t.Fatalf("point %d: emission divergence: Append (%+v, %v) vs reference (%+v, %v)", i, mS, okS, mG, okG)
			}
		}
		fS, okS := spS.Flush()
		fG, okG := spG.Flush()
		if okS != okG || math.Float64bits(fS.Distance) != math.Float64bits(fG.Distance) ||
			fS.Start != fG.Start || fS.End != fG.End {
			t.Fatalf("flush divergence: Append (%+v, %v) vs reference (%+v, %v)", fS, okS, fG, okG)
		}
	})
}
