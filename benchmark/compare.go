package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles returns the first and third quartile of values as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive
// method), which is what the acceptance procedure uses.
func quartiles(values []float64) (q1, q3 float64) {
	x := sortedCopy(values)
	n := len(x)
	if n < 2 {
		if n == 1 {
			return x[0], x[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// readRuns loads an -out file: one savedRun per line.
func readRuns(path string) ([]savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []savedRun
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r savedRun
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// verdict classifies one (workload, metric) pairing of an end-to-end
// metric from the parent's and the change's runs, by the rule of the
// choosing-metrics guide: worse when the median worsened by more than
// the bound; unresolved when the parent's own quartile spread is wider
// than the bound, unless every run of one side beats every run of the
// other; improved when the medians differ by more than that spread in
// the good direction and the change won nine tenths of at least ten
// pairs; unchanged otherwise.
func verdict(d metricDef, parent, change []float64) (string, float64, float64) {
	mp, mc := median(parent), median(change)
	sign := 1.0 // positive worsening = bad
	if d.Better == "higher" {
		sign = -1
	}
	worsening := sign * (mc - mp) / mp
	q1, q3 := quartiles(parent)
	spread := (q3 - q1) / mp
	// Every run of one side beats every run of the other when the two
	// ranges, oriented so that larger is worse, do not overlap.
	sp, sc := sortedCopy(parent), sortedCopy(change)
	pLo, pHi, cLo, cHi := sign*sp[0], sign*sp[len(sp)-1], sign*sc[0], sign*sc[len(sc)-1]
	if sign < 0 {
		pLo, pHi, cLo, cHi = pHi, pLo, cHi, cLo
	}
	changeWins, changeLoses := cHi < pLo, cLo > pHi
	switch {
	case spread > d.Bound && changeWins:
		return "improved", worsening, spread
	case spread > d.Bound && changeLoses && worsening > d.Bound:
		return "worse", worsening, spread
	case spread > d.Bound:
		return "unresolved", worsening, spread
	case worsening > d.Bound:
		return "worse", worsening, spread
	case -worsening > spread && worsening < 0 && winsNineTenths(sign, parent, change):
		return "improved", worsening, spread
	}
	return "unchanged", worsening, spread
}

// winsNineTenths pairs the runs in file order (the i-th run of each side
// ran back to back) and reports whether there are at least ten pairs and
// the change won at least nine tenths of them, ties counting for neither
// side.
func winsNineTenths(sign float64, parent, change []float64) bool {
	if len(parent) < 10 || len(change) < 10 {
		return false
	}
	var wins, losses int
	for i := 0; i < len(parent) && i < len(change); i++ {
		switch d := sign * (change[i] - parent[i]); {
		case d < 0:
			wins++
		case d > 0:
			losses++
		}
	}
	return wins > 0 && float64(wins) >= 0.9*float64(wins+losses)
}

// compareFiles prints, per workload and metric, the parent's and the
// change's medians, their ratio with its base, and for end-to-end
// metrics the verdict under the ledger's bounds. It reports whether any
// pairing came out worse.
func compareFiles(w io.Writer, parentPath, changePath string) (bool, error) {
	parent, err := readRuns(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return false, err
	}
	type key struct {
		workload string
		trace    bool
	}
	group := func(runs []savedRun) (map[key]map[string][]float64, map[key]map[string]bool) {
		vals := map[key]map[string][]float64{}
		inputs := map[key]map[string]bool{}
		for _, r := range runs {
			k := key{r.Workload, r.Trace}
			if vals[k] == nil {
				vals[k], inputs[k] = map[string][]float64{}, map[string]bool{}
			}
			inputs[k][fmt.Sprintf("seed %d: %s", r.Seed, r.Inputs)] = true
			for name, v := range r.Metrics {
				vals[k][name] = append(vals[k][name], v.Value)
			}
		}
		return vals, inputs
	}
	pv, pin := group(parent)
	cv, cin := group(change)
	anyWorse := false
	for _, trace := range []bool{false, true} {
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		for _, wl := range workloads {
			k := key{wl.name, trace}
			if pv[k] == nil || cv[k] == nil {
				continue
			}
			mode := "end-to-end"
			if trace {
				mode = "per-layer"
			}
			fmt.Fprintf(w, "== %s (%s; parent %d runs, change %d runs)\n", wl.name, mode, len(pv[k][defs[0].Name]), len(cv[k][defs[0].Name]))
			if fmt.Sprint(sortedKeys(pin[k])) != fmt.Sprint(sortedKeys(cin[k])) {
				fmt.Fprintf(w, "   WARNING: the two sides did not measure the same inputs: %v vs %v\n", sortedKeys(pin[k]), sortedKeys(cin[k]))
			}
			for _, d := range defs {
				p, c := pv[k][d.Name], cv[k][d.Name]
				if len(p) == 0 || len(c) == 0 {
					continue
				}
				mp, mc := median(p), median(c)
				if trace {
					if mp == 0 && mc == 0 {
						continue
					}
					fmt.Fprintf(w, "   %-34s %14.6g -> %-14.6g %s  ratio %.4f of base %.6g\n", d.Name, mp, mc, d.Unit, ratio(mc, mp), mp)
					continue
				}
				v, worsening, spread := verdict(d, p, c)
				if v == "worse" {
					anyWorse = true
				}
				fmt.Fprintf(w, "   %-18s %-10s %14.6g -> %-14.6g %s  ratio %.4f of base %.6g  (worsening %+.2f%%, bound %.0f%%, parent spread %.2f%%)\n",
					d.Name, v, mp, mc, d.Unit, ratio(mc, mp), mp, 100*worsening, 100*d.Bound, 100*spread)
			}
		}
	}
	return anyWorse, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
