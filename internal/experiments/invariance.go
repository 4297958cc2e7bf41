package experiments

import (
	"fmt"
	"strings"

	"sdtw/internal/band"
	"sdtw/internal/core"
	"sdtw/internal/datasets"
	"sdtw/internal/match"
	"sdtw/internal/sift"
)

// InvarianceRow reports alignment quality under one invariance setting on
// an amplitude-perturbed workload.
type InvarianceRow struct {
	Setting string
	// AvgPairs is the mean number of consistent salient pairs per
	// same-class comparison.
	AvgPairs float64
	// DistErr is the mean (ac,aw) distance error against full DTW.
	DistErr float64
}

// Invariance exercises §3.1.2's claim that each invariance can be toggled
// independently: it scales the amplitudes of half the Gun series and
// evaluates matching with amplitude invariance on and off (descriptor
// normalisation and the τa bound).
func Invariance(seed int64) ([]InvarianceRow, error) {
	d := datasets.Gun(datasets.Config{Seed: seed, SeriesPerClass: 4})
	// Amplitude-perturb every second series by 1.8x: DTW values change,
	// but feature structure should still align when amplitude invariance
	// is on.
	for i := range d.Series {
		if i%2 == 1 {
			for j := range d.Series[i].Values {
				d.Series[i].Values[j] *= 1.8
			}
		}
	}
	settings := []struct {
		name      string
		invariant bool
		tauA      float64
	}{
		{"invariant, τa off", true, -1},
		{"invariant, τa=0.5", true, 0.5},
		{"variant, τa off", false, -1},
	}
	var rows []InvarianceRow
	for _, s := range settings {
		feat := sift.DefaultConfig()
		feat.AmplitudeInvariant = s.invariant
		matcher := match.DefaultConfig()
		matcher.MaxAmplitudeDiff = s.tauA
		engine := core.NewEngine(core.Options{
			Band:     band.Config{Strategy: band.AdaptiveCoreAdaptiveWidth},
			Features: feat,
			Matcher:  matcher,
		})
		pairs, errSum, n := 0, 0.0, 0
		for i := 0; i+1 < d.Len(); i += 2 {
			res, err := engine.Distance(d.Series[i], d.Series[i+1])
			if err != nil {
				return nil, fmt.Errorf("experiments: invariance %s: %w", s.name, err)
			}
			pairs += res.Pairs
			full, err := fullDTW(d.Series[i].Values, d.Series[i+1].Values)
			if err != nil {
				return nil, err
			}
			if full > 0 {
				errSum += (res.Distance - full) / full
				n++
			}
		}
		row := InvarianceRow{Setting: s.name}
		if n > 0 {
			row.AvgPairs = float64(pairs) / float64(n)
			row.DistErr = errSum / float64(n)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderInvariance formats the invariance ablation.
func RenderInvariance(rows []InvarianceRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Amplitude-invariance ablation (Gun with 1.8x scaled halves)\n")
	fmt.Fprintf(&b, "%-20s %9s %10s\n", "setting", "avgpairs", "disterr")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %9.1f %10.4f\n", r.Setting, r.AvgPairs, r.DistErr)
	}
	return b.String()
}
