package lower

import (
	"math"
	"math/rand"
	"testing"

	"sdtw/internal/dtw"
)

// FuzzCascadeAdmissible fuzzes the bound chain's two standing contracts:
//
//  1. bit-identity: the Kim/Keogh kernels must match their textbook
//     definitions exactly;
//  2. admissibility: LB_Kim and LB_Keogh(r) must never exceed the
//     Sakoe-Chiba(r) DTW distance their envelopes assume.
//
// CI runs this for a bounded ~30s in the fuzz-smoke lane.
func FuzzCascadeAdmissible(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(2))
	f.Add(int64(9), uint8(1), uint8(0))
	f.Add(int64(23), uint8(60), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, n8, r8 uint8) {
		n := int(n8)%64 + 1
		r := int(r8) % 8
		rng := rand.New(rand.NewSource(seed))
		q := randomValues(rng, n)
		c := randomValues(rng, n)

		kimG := kimTextbook(q, c)
		kimS, err := Kim(q, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(kimG) != math.Float64bits(kimS) {
			t.Fatalf("LB_Kim bits differ: %v vs %v", kimG, kimS)
		}

		env := NewEnvelope(c, r)
		keoghG := keoghTextbook(q, env)
		keoghS, err := Keogh(q, env, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(keoghG) != math.Float64bits(keoghS) {
			t.Fatalf("LB_Keogh bits differ: %v vs %v", keoghG, keoghS)
		}

		band := dtw.SakoeChibaRadius(n, n, r)
		exact, _, err := dtw.Banded(q, c, band)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateBound(kimS, exact); err != nil {
			t.Errorf("LB_Kim not admissible (n=%d r=%d): %v", n, r, err)
		}
		if err := ValidateBound(keoghS, exact); err != nil {
			t.Errorf("LB_Keogh not admissible (n=%d r=%d): %v", n, r, err)
		}
	})
}
