package experiments

import (
	"strings"
	"testing"
)

func TestNoiseRobustness(t *testing.T) {
	rows, err := NoiseRobustness(42, []float64{0.005, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.FeatureDrift < 0 {
			t.Fatalf("negative drift: %+v", r)
		}
		if r.PairSurvival < 0 || r.PairSurvival > 1 {
			t.Fatalf("pair survival out of range: %+v", r)
		}
	}
	// Low-noise drift must stay within a feature scope or two; the paper
	// claims detection is robust against noise.
	if rows[0].FeatureDrift > 15 {
		t.Fatalf("low-noise feature drift %v too large", rows[0].FeatureDrift)
	}
	if out := RenderNoise(rows); !strings.Contains(out, "featdrift") {
		t.Fatalf("rendered noise table malformed:\n%s", out)
	}
}

func TestInvariance(t *testing.T) {
	rows, err := Invariance(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]InvarianceRow{}
	for _, r := range rows {
		byName[r.Setting] = r
	}
	// With amplitudes perturbed, the invariant configuration (with the
	// amplitude bound disabled) must find at least as many consistent
	// pairs as the strict τa configuration, which rejects cross-scale
	// matches outright.
	inv := byName["invariant, τa off"]
	strict := byName["invariant, τa=0.5"]
	if inv.AvgPairs < strict.AvgPairs {
		t.Fatalf("invariance found fewer pairs than the τa-bounded setting: %v vs %v",
			inv.AvgPairs, strict.AvgPairs)
	}
	if out := RenderInvariance(rows); !strings.Contains(out, "avgpairs") {
		t.Fatalf("rendered invariance table malformed:\n%s", out)
	}
}
