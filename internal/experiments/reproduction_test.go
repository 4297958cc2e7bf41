package experiments

import (
	"testing"
)

// TestPaperShapeGun asserts the paper's headline findings on a
// medium-scale Gun workload: this is the reproduction regression test —
// if a change to the pipeline breaks any of the qualitative claims the
// repository exists to reproduce, it fails here first. Skipped under
// -short (it computes several full distance matrices).
func TestPaperShapeGun(t *testing.T) {
	if testing.Short() {
		t.Skip("reproduction regression runs medium-scale matrices")
	}
	results, err := Fig13("Gun", Medium, 42)
	if err != nil {
		t.Fatal(err)
	}
	r := indexResults(t, results)

	// Claim (Fig 13a): for fixed core & fixed width, larger w is more
	// accurate.
	assertLess(t, r["fc,fw 6%"].Top5Acc, r["fc,fw 20%"].Top5Acc, "fc,fw accuracy grows with width")
	// Claim (Fig 13/14): adapting the core boosts accuracy at equal
	// width on shift-heavy data.
	assertLess(t, r["fc,fw 10%"].Top5Acc, r["ac,fw 10%"].Top5Acc, "(ac,fw) beats (fc,fw) at 10%")
	assertLess(t, r["ac,fw 10%"].DistErr, r["fc,fw 10%"].DistErr, "(ac,fw) error below (fc,fw) at 10%")
	// Claim: adapting the width boosts accuracy further.
	assertLess(t, r["ac,aw"].DistErr, r["ac,fw 10%"].DistErr, "(ac,aw) error below (ac,fw)")
	// Claim (Fig 14a): fixed core & fixed width suffers extreme errors on
	// Gun — at least an order of magnitude above (ac2,aw).
	if r["fc,fw 6%"].DistErr < 10*r["ac2,aw"].DistErr {
		t.Errorf("fc,fw 6%% error %v not an order of magnitude above ac2,aw %v",
			r["fc,fw 6%"].DistErr, r["ac2,aw"].DistErr)
	}
	assertAdaptiveBandEarnsItsPlace(t, r)
	// Claim: every algorithm prunes the grid substantially.
	for name, res := range r {
		if res.CellsGain < 0.4 {
			t.Errorf("%s cells gain %v below 0.4", name, res.CellsGain)
		}
	}
}

// TestPaperShape50Words asserts the paper's 50Words exception: with no
// major shifts, (fc,aw) posts the smallest distance error.
func TestPaperShape50Words(t *testing.T) {
	if testing.Short() {
		t.Skip("reproduction regression runs medium-scale matrices")
	}
	results, err := Fig13("50Words", Medium, 42) // Fig 14 reads the same grid
	if err != nil {
		t.Fatal(err)
	}
	r := indexResults(t, results)
	assertAdaptiveBandEarnsItsPlace(t, r)
	for name, res := range r {
		if name == "fc,aw" {
			continue
		}
		if res.DistErr < r["fc,aw"].DistErr {
			t.Errorf("(fc,aw) not the most accurate on 50Words: %s has %v < %v",
				name, res.DistErr, r["fc,aw"].DistErr)
		}
	}
}

// TestPaperShapeTraceIntraClass asserts Fig 15's finding: adaptive cores
// bring intra-class Trace errors down by an order of magnitude.
func TestPaperShapeTraceIntraClass(t *testing.T) {
	if testing.Short() {
		t.Skip("reproduction regression runs medium-scale matrices")
	}
	results, err := Fig13("Trace", Medium, 42)
	if err != nil {
		t.Fatal(err)
	}
	r := indexResults(t, results)
	assertAdaptiveBandEarnsItsPlace(t, r)
	if r["fc,fw 10%"].IntraClassErr < 5*r["ac,fw 10%"].IntraClassErr {
		t.Errorf("adaptive core did not slash intra-class error: fc %v vs ac %v",
			r["fc,fw 10%"].IntraClassErr, r["ac,fw 10%"].IntraClassErr)
	}
}

// assertAdaptiveBandEarnsItsPlace asserts the paper's headline trade on
// accuracy: the (ac,aw) band is at least as accurate, in top-5 retrieval,
// as the widest fixed band the grid sweeps, (fc,fw) at 20 %. Without the
// 20 % width floor and fallback band, (ac,aw) loses on Trace and 50Words
// (0.700 < 0.783 and 0.792 < 0.811 at medium scale, seed 42).
func assertAdaptiveBandEarnsItsPlace(t *testing.T, r map[string]AlgoResult) {
	t.Helper()
	if r["ac,aw"].Top5Acc < r["fc,fw 20%"].Top5Acc {
		t.Errorf("(ac,aw) top-5 accuracy %v below (fc,fw) 20%% %v", r["ac,aw"].Top5Acc, r["fc,fw 20%"].Top5Acc)
	}
}

func indexResults(t *testing.T, results []AlgoResult) map[string]AlgoResult {
	t.Helper()
	m := make(map[string]AlgoResult, len(results))
	for _, r := range results {
		m[r.Algorithm] = r
	}
	return m
}

func assertLess(t *testing.T, a, b float64, claim string) {
	t.Helper()
	if a >= b {
		t.Errorf("%s: %v !< %v", claim, a, b)
	}
}
