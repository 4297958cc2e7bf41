package match

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sdtw/internal/series"
	"sdtw/internal/sift"
)

// feat builds a synthetic feature with a simple descriptor for matcher
// unit tests. The descriptor encodes "kind" so that equal kinds match
// perfectly and different kinds are far apart.
func feat(x int, sigma float64, amp float64, kind int) sift.Feature {
	desc := make([]float64, 8)
	desc[kind%8] = 1
	return sift.Feature{
		X:          x,
		Sigma:      sigma,
		Scope:      3 * sigma,
		Amplitude:  amp,
		Response:   0.5,
		Descriptor: desc,
	}
}

func TestDominantPairsBasicMatch(t *testing.T) {
	fx := []sift.Feature{feat(30, 3, 1, 0), feat(90, 3, 1, 1)}
	fy := []sift.Feature{feat(35, 3, 1, 0), feat(95, 3, 1, 1)}
	pairs := DominantPairs(fx, fy, DefaultConfig())
	if len(pairs) != 2 {
		t.Fatalf("got %d pairs, want 2: %+v", len(pairs), pairs)
	}
	if pairs[0].J != 0 || pairs[1].J != 1 {
		t.Fatalf("wrong partners: %+v", pairs)
	}
}

func TestDominantPairsAmplitudeThreshold(t *testing.T) {
	fx := []sift.Feature{feat(30, 3, 0.0, 0)}
	fy := []sift.Feature{feat(35, 3, 2.0, 0)} // same descriptor, far amplitude
	cfg := DefaultConfig()
	cfg.MaxAmplitudeDiff = 0.5
	if pairs := DominantPairs(fx, fy, cfg); len(pairs) != 0 {
		t.Fatalf("amplitude threshold ignored: %+v", pairs)
	}
	cfg.MaxAmplitudeDiff = -1 // disabled
	if pairs := DominantPairs(fx, fy, cfg); len(pairs) != 1 {
		t.Fatalf("disabled amplitude threshold still filters: %+v", pairs)
	}
}

func TestDominantPairsScaleRatioThreshold(t *testing.T) {
	fx := []sift.Feature{feat(30, 2, 1, 0)}
	fy := []sift.Feature{feat(35, 20, 1, 0)} // 10x scale apart
	cfg := DefaultConfig()
	if pairs := DominantPairs(fx, fy, cfg); len(pairs) != 0 {
		t.Fatalf("scale threshold ignored: %+v", pairs)
	}
	fy[0].Sigma = 2 * maxScaleRatio // just inside τs
	if pairs := DominantPairs(fx, fy, cfg); len(pairs) != 1 {
		t.Fatalf("scales within τs filtered: %+v", pairs)
	}
}

func TestDominantPairsDominanceTest(t *testing.T) {
	// Two distant Y features with identical descriptors: ambiguous, the
	// ratio test must reject the match.
	fx := []sift.Feature{feat(50, 3, 1, 0)}
	fy := []sift.Feature{feat(30, 3, 1, 0), feat(120, 3, 1, 0)}
	cfg := DefaultConfig()
	if pairs := DominantPairs(fx, fy, cfg); len(pairs) != 0 {
		t.Fatalf("ambiguous match survived the ratio test: %+v", pairs)
	}
	// A runner-up more than τd farther than the best lets the best win.
	fy[1].Descriptor = []float64{0, 1, 0, 0, 0, 0, 0, 0}
	fx[0].Descriptor = []float64{1, 0.1, 0, 0, 0, 0, 0, 0}
	if pairs := DominantPairs(fx, fy, cfg); len(pairs) != 1 || pairs[0].J != 0 {
		t.Fatalf("dominant match filtered: %+v", pairs)
	}
}

func TestDominantPairsDuplicateClusterNotCompetitor(t *testing.T) {
	// Two near-identical Y features at adjacent positions (a duplicate
	// cluster, as relaxed detection produces) must NOT trigger the
	// ambiguity rejection.
	fx := []sift.Feature{feat(50, 3, 1, 0)}
	fy := []sift.Feature{feat(48, 3, 1, 0), feat(52, 3, 1, 0)}
	pairs := DominantPairs(fx, fy, DefaultConfig())
	if len(pairs) != 1 {
		t.Fatalf("duplicate cluster treated as competitor: %+v", pairs)
	}
}

func TestDominantPairsMutualBest(t *testing.T) {
	// Y's best partner for fy[0] is fx[1] (identical descriptor), so the
	// weaker претендент fx[0] must not claim fy[0].
	near := feat(30, 3, 1, 0)
	near.Descriptor = []float64{0.9, 0.1, 0, 0, 0, 0, 0, 0}
	exact := feat(90, 3, 1, 0)
	fx := []sift.Feature{near, exact}
	fy := []sift.Feature{feat(88, 3, 1, 0)}
	pairs := DominantPairs(fx, fy, DefaultConfig())
	if len(pairs) != 1 || pairs[0].I != 1 {
		t.Fatalf("mutual best violated: %+v", pairs)
	}
}

func TestMatchEmptyFeatures(t *testing.T) {
	al, err := Match(nil, nil, 100, 100, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(al.Pairs) != 0 || len(al.BoundsX) != 0 {
		t.Fatalf("empty inputs produced pairs: %+v", al)
	}
	if al.NX != 100 || al.NY != 100 {
		t.Fatalf("lengths not recorded: %+v", al)
	}
}

func TestMatchRejectsBadLengths(t *testing.T) {
	if _, err := Match(nil, nil, 0, 10, DefaultConfig()); err == nil {
		t.Fatal("zero length accepted")
	}
	if _, err := Match(nil, nil, 10, -1, DefaultConfig()); err == nil {
		t.Fatal("negative length accepted")
	}
}

func TestMatchPrunesCrossing(t *testing.T) {
	// fx[0] matches fy[1] (kind 0) and fx[1] matches fy[0] (kind 1):
	// a temporal crossing. At most one can survive.
	fx := []sift.Feature{feat(30, 3, 1, 0), feat(120, 3, 1, 1)}
	fy := []sift.Feature{feat(120, 3, 1, 1), feat(30, 3, 1, 0)}
	// Positions in Y: kind-1 at 120 is fy[0]... build explicitly:
	fy = []sift.Feature{feat(30, 3, 1, 1), feat(120, 3, 1, 0)}
	al, err := Match(fx, fy, 160, 160, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(al.Pairs) > 1 {
		t.Fatalf("crossing pairs survived: %+v", al.Pairs)
	}
}

func TestMatchKeepsConsistentOrder(t *testing.T) {
	fx := []sift.Feature{feat(20, 2, 1, 0), feat(80, 2, 1, 1), feat(140, 2, 1, 2)}
	fy := []sift.Feature{feat(25, 2, 1, 0), feat(85, 2, 1, 1), feat(150, 2, 1, 2)}
	al, err := Match(fx, fy, 200, 200, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(al.Pairs) != 3 {
		t.Fatalf("consistent pairs pruned: got %d, want 3", len(al.Pairs))
	}
	// Boundary lists must be strictly increasing and corresponding.
	if len(al.BoundsX) != len(al.BoundsY) {
		t.Fatalf("boundary lists differ in length")
	}
	for k := 1; k < len(al.BoundsX); k++ {
		if al.BoundsX[k] <= al.BoundsX[k-1] || al.BoundsY[k] <= al.BoundsY[k-1] {
			t.Fatalf("boundaries not strictly increasing: %v %v", al.BoundsX, al.BoundsY)
		}
	}
}

func TestMatchSlopeBound(t *testing.T) {
	// A single pair implying a 10x stretch between the start corner and
	// the match must be pruned under the default slope bound of 4.
	fx := []sift.Feature{feat(10, 2, 1, 0)}
	fy := []sift.Feature{feat(140, 2, 1, 0)}
	al, err := Match(fx, fy, 160, 160, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(al.Pairs) != 0 {
		t.Fatalf("implausible stretch survived: %+v", al.Pairs)
	}
	// A 2x stretch is within the bound and survives.
	fy[0].X = 20
	al, err = Match(fx, fy, 160, 160, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(al.Pairs) != 1 {
		t.Fatalf("plausible stretch pruned: %+v", al.Pairs)
	}
}

func TestSwapRoundTrip(t *testing.T) {
	fx := []sift.Feature{feat(20, 2, 1, 0), feat(80, 2, 1, 1)}
	fy := []sift.Feature{feat(30, 2, 1, 0), feat(95, 2, 1, 1)}
	al, err := Match(fx, fy, 120, 140, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sw := al.Swap()
	if sw.NX != al.NY || sw.NY != al.NX {
		t.Fatalf("swap lengths wrong: %+v", sw)
	}
	if len(sw.BoundsX) != len(al.BoundsY) {
		t.Fatalf("swap boundary lengths wrong")
	}
	for k := range sw.BoundsX {
		if sw.BoundsX[k] != al.BoundsY[k] || sw.BoundsY[k] != al.BoundsX[k] {
			t.Fatalf("swap boundaries not mirrored")
		}
	}
	back := sw.Swap()
	for k := range back.BoundsX {
		if back.BoundsX[k] != al.BoundsX[k] {
			t.Fatalf("double swap not identity")
		}
	}
	// Swap must be deep: mutating the swap's bounds leaves the original.
	if len(sw.BoundsX) > 0 {
		sw.BoundsX[0] = -1
		if al.BoundsY[0] == -1 {
			t.Fatalf("Swap aliases boundary storage")
		}
	}
}

// TestIntervalsPartition: the boundaries of a matched alignment lie
// strictly inside both series and strictly increase, so the intervals
// between them (paper Fig 9) chain from the first sample to the last of
// each series, each X interval corresponding to its Y interval.
func TestIntervalsPartition(t *testing.T) {
	fx := []sift.Feature{feat(20, 2, 1, 0), feat(80, 2, 1, 1), feat(140, 2, 1, 2)}
	fy := []sift.Feature{feat(25, 2, 1, 0), feat(85, 2, 1, 1), feat(150, 2, 1, 2)}
	al, err := Match(fx, fy, 200, 220, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(al.BoundsX) == 0 || len(al.BoundsX) != len(al.BoundsY) {
		t.Fatalf("boundary lists %v and %v: want equal, non-empty", al.BoundsX, al.BoundsY)
	}
	prevX, prevY := 0, 0
	for k := range al.BoundsX {
		if al.BoundsX[k] <= prevX || al.BoundsY[k] <= prevY {
			t.Fatalf("boundary %d at (%d,%d) does not follow (%d,%d)", k, al.BoundsX[k], al.BoundsY[k], prevX, prevY)
		}
		prevX, prevY = al.BoundsX[k], al.BoundsY[k]
	}
	if prevX >= al.NX-1 || prevY >= al.NY-1 {
		t.Fatalf("last boundary (%d,%d) is not inside the %dx%d grid", prevX, prevY, al.NX, al.NY)
	}
}

// TestIntervalsNoBoundaries: an alignment that keeps no pair (here the
// one candidate fails τs) has no boundaries, so its one interval is the
// whole of both series.
func TestIntervalsNoBoundaries(t *testing.T) {
	al, err := Match([]sift.Feature{feat(30, 2, 1, 0)}, []sift.Feature{feat(30, 20, 1, 0)}, 50, 60, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(al.Pairs) != 0 || al.BoundsX != nil || al.BoundsY != nil || al.NX != 50 || al.NY != 60 {
		t.Fatalf("trivial partition wrong: %+v", al)
	}
}

func TestScoringPrefersLargeCloseFeatures(t *testing.T) {
	big := Pair{FI: feat(50, 10, 1, 0), FJ: feat(52, 10, 1, 0), DescDist: 0.1}
	smallFar := Pair{FI: feat(20, 2, 1, 0), FJ: feat(120, 2, 1, 0), DescDist: 0.1}
	pairs := []Pair{big, smallFar}
	scorePairs(pairs)
	if pairs[0].Align <= pairs[1].Align {
		t.Fatalf("µalign did not prefer the large close pair: %v vs %v", pairs[0].Align, pairs[1].Align)
	}
	if pairs[0].Combined <= pairs[1].Combined {
		t.Fatalf("µcomb did not prefer the large close pair")
	}
}

func TestScoringSimPrefersSimilarAmplitudes(t *testing.T) {
	same := Pair{FI: feat(50, 5, 1.0, 0), FJ: feat(55, 5, 1.0, 0), DescDist: 0.2}
	diff := Pair{FI: feat(150, 5, 1.0, 0), FJ: feat(155, 5, 0.2, 0), DescDist: 0.2}
	pairs := []Pair{same, diff}
	scorePairs(pairs)
	if pairs[0].Sim <= pairs[1].Sim {
		t.Fatalf("µsim did not prefer matching amplitudes: %v vs %v", pairs[0].Sim, pairs[1].Sim)
	}
}

func TestScoreCombinedIsFMeasure(t *testing.T) {
	pairs := []Pair{
		{FI: feat(10, 5, 1, 0), FJ: feat(12, 5, 1, 0), DescDist: 0.1},
		{FI: feat(60, 3, 1, 0), FJ: feat(70, 3, 0.8, 0), DescDist: 0.4},
	}
	scorePairs(pairs)
	for _, p := range pairs {
		na := p.Align / pairs[0].Align // pairs[0] has max align here
		_ = na
		if p.Combined < 0 || p.Combined > 1+1e-9 {
			t.Fatalf("combined score out of range: %v", p.Combined)
		}
	}
	// The best pair on both axes gets a combined score of exactly 1.
	if math.Abs(pairs[0].Combined-1) > 1e-9 {
		t.Fatalf("dominant pair combined = %v, want 1", pairs[0].Combined)
	}
}

func TestBoundaryListRanks(t *testing.T) {
	var bl boundaryList
	bl.insert(10, 50)
	rs, re := bl.ranks(5, 60)
	if rs != 0 || re != 3 {
		t.Fatalf("ranks(5,60) = (%d,%d), want (0,3)", rs, re)
	}
	rs, re = bl.ranks(20, 30)
	if rs != 1 || re != 2 {
		t.Fatalf("ranks(20,30) = (%d,%d), want (1,2)", rs, re)
	}
	// A point equal to a committed point ranks before it ("strictly
	// smaller" counting), so ties rank consistently on both series.
	rs, _ = bl.ranks(10, 40)
	if rs != 0 {
		t.Fatalf("rank of tied start = %d, want 0", rs)
	}
}

func TestPruneRandomisedNoCrossings(t *testing.T) {
	// Property: after pruning, committed boundary points never cross —
	// sorting by X equals sorting by Y.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 200
		var fx, fy []sift.Feature
		numPairs := 2 + rng.Intn(12)
		for k := 0; k < numPairs; k++ {
			kind := rng.Intn(8)
			fx = append(fx, feat(rng.Intn(n), 2+rng.Float64()*8, rng.Float64(), kind))
			fy = append(fy, feat(rng.Intn(n), 2+rng.Float64()*8, rng.Float64(), kind))
		}
		al, err := Match(fx, fy, n, n, DefaultConfig())
		if err != nil {
			return false
		}
		for k := 1; k < len(al.BoundsX); k++ {
			if al.BoundsX[k] <= al.BoundsX[k-1] || al.BoundsY[k] <= al.BoundsY[k-1] {
				return false
			}
		}
		return len(al.BoundsX) == len(al.BoundsY)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchOnRealExtraction(t *testing.T) {
	// End-to-end: a series and its warped copy must produce consistent
	// pairs linking corresponding regions.
	rng := rand.New(rand.NewSource(99))
	base := make([]float64, 256)
	for i := range base {
		x := float64(i)
		base[i] = series.GaussianBump(x, 60, 8, 1) + series.GaussianBump(x, 150, 12, -0.8) + series.GaussianBump(x, 220, 6, 0.9)
	}
	warped := series.ApplyWarp(base, series.RandomWarp(rng, 4, 0.3), 256)
	fb, err := sift.Extract(base, sift.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fw, err := sift.Extract(warped, sift.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	al, err := Match(fb, fw, 256, 256, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(al.Pairs) == 0 {
		t.Fatal("no consistent pairs between a series and its warped copy")
	}
	// Matched features should link approximately corresponding positions:
	// the warp is bounded, so |x−y| stays well below the series length.
	for _, p := range al.Pairs {
		if math.Abs(float64(p.FI.X-p.FJ.X)) > 100 {
			t.Fatalf("pair links distant positions: %d vs %d", p.FI.X, p.FJ.X)
		}
	}
}
