package dtw

import (
	"math"
	"math/rand"
	"testing"

	"sdtw/internal/series"
)

func TestSubsequenceExactPlant(t *testing.T) {
	// Plant the query verbatim inside a distinctive stream: the match
	// must align exactly with zero distance.
	q := []float64{0, 1, 2, 1, 0}
	s := []float64{5, 5, 5, 0, 1, 2, 1, 0, 5, 5}
	m, err := Subsequence(q, s)
	if err != nil {
		t.Fatal(err)
	}
	if m.Distance > 1e-12 {
		t.Fatalf("planted query distance = %v", m.Distance)
	}
	if m.Start != 3 || m.End != 7 {
		t.Fatalf("match at [%d,%d], want [3,7]", m.Start, m.End)
	}
}

func TestSubsequenceWarpedPlant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Query: a distinctive double bump.
	q := make([]float64, 60)
	for i := range q {
		x := float64(i)
		q[i] = series.GaussianBump(x, 18, 5, 1) + series.GaussianBump(x, 42, 5, -0.8)
	}
	// Stream: noise, then a time-warped copy of q, then noise.
	warped := series.ApplyWarp(q, series.RandomWarp(rng, 3, 0.3), 75)
	var s []float64
	for i := 0; i < 100; i++ {
		s = append(s, 0.05*rng.NormFloat64())
	}
	plantStart := len(s)
	s = append(s, warped...)
	plantEnd := len(s) - 1
	for i := 0; i < 100; i++ {
		s = append(s, 0.05*rng.NormFloat64())
	}
	m, err := Subsequence(q, s)
	if err != nil {
		t.Fatal(err)
	}
	// The located region must overlap the plant substantially.
	overlapLo := max(m.Start, plantStart)
	overlapHi := plantEnd
	if m.End < overlapHi {
		overlapHi = m.End
	}
	overlap := overlapHi - overlapLo + 1
	if overlap < 50 {
		t.Fatalf("match [%d,%d] misses plant [%d,%d]", m.Start, m.End, plantStart, plantEnd)
	}
	if m.Distance > 0.5 {
		t.Fatalf("warped plant distance = %v", m.Distance)
	}
}

func TestSubsequenceWholeSeries(t *testing.T) {
	// When s == q, the best subsequence is essentially the whole series
	// and the distance matches full DTW (0).
	q := []float64{1, 3, 2, 4}
	m, err := Subsequence(q, q)
	if err != nil {
		t.Fatal(err)
	}
	if m.Distance != 0 {
		t.Fatalf("self match distance = %v", m.Distance)
	}
	if m.Start != 0 || m.End != len(q)-1 {
		t.Fatalf("self match region [%d,%d]", m.Start, m.End)
	}
}

func TestSubsequenceBoundsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		q := randomSeries(rng, 2+rng.Intn(20))
		s := randomSeries(rng, 2+rng.Intn(120))
		m, err := Subsequence(q, s)
		if err != nil {
			t.Fatal(err)
		}
		if m.Start < 0 || m.End >= len(s) || m.Start > m.End {
			t.Fatalf("invalid region [%d,%d] for |s|=%d", m.Start, m.End, len(s))
		}
		if math.IsNaN(m.Distance) || math.IsInf(m.Distance, 0) || m.Distance < 0 {
			t.Fatalf("invalid distance %v", m.Distance)
		}
		// The open alignment can never cost more than aligning against
		// the full series (which is one admissible subsequence).
		full, err := Distance(q, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if m.Distance > full+1e-9 {
			t.Fatalf("subsequence %v worse than whole-series DTW %v", m.Distance, full)
		}
	}
}

func TestSubsequenceAgainstBruteForce(t *testing.T) {
	// The optimal subsequence distance equals the minimum of DTW(q,
	// s[a..b]) over all regions — check on small inputs.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		q := randomSeries(rng, 2+rng.Intn(5))
		s := randomSeries(rng, 3+rng.Intn(8))
		m, err := Subsequence(q, s)
		if err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		for a := 0; a < len(s); a++ {
			for b := a; b < len(s); b++ {
				d, err := Distance(q, s[a:b+1], nil)
				if err != nil {
					t.Fatal(err)
				}
				if d < best {
					best = d
				}
			}
		}
		if math.Abs(m.Distance-best) > 1e-9 {
			t.Fatalf("trial %d: subsequence %v != brute force %v", trial, m.Distance, best)
		}
	}
}

func TestSubsequenceEmptyInput(t *testing.T) {
	if _, err := Subsequence(nil, []float64{1}); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, err := Subsequence([]float64{1}, nil); err == nil {
		t.Fatal("empty stream accepted")
	}
}
