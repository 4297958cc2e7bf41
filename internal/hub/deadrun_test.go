package hub

import (
	"math"
	"math/rand"
	"testing"

	"sdtw/internal/dtw"
)

// springSkips reports whether a fresh prefiltered spring of tpl skips v:
// the query's own AppendFiltered is the oracle.
func springSkips(tpl *dtw.SpringTemplate, v float64) bool {
	var sp dtw.Spring
	tpl.Init(&sp, make([]float64, tpl.StateLen()), make([]int, tpl.StateLen()))
	sp.AppendFiltered(v)
	return sp.Skipped() == 1
}

// adversarialPoints lists stream values at and around the edges of r's
// dead zones: hi+√theta and lo−√theta and a few ulps either side, the
// range ends themselves, subnormal steps past them, ±Inf, ±MaxFloat64,
// signed zeros and NaN.
func adversarialPoints(r fleetRange) []float64 {
	out := []float64{math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, 0, math.Copysign(0, -1), math.NaN()}
	root := math.Sqrt(r.theta)
	for _, edge := range []float64{r.hi + root, r.hi, r.lo - root, r.lo} {
		for _, base := range []float64{edge, r.hi + 5e-324, r.hi + 1e-320, r.lo - 5e-324, r.lo - 1e-320} {
			up, down := base, base
			out = append(out, base)
			for k := 0; k < 4; k++ {
				up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
				out = append(out, up, down)
			}
		}
	}
	return out
}

// TestFleetDeadImpliesDeadForEachQuery is the admissibility property of
// the fleet range: a point it calls dead is skipped by every query's own
// AppendFiltered, over query ranges and thresholds a few ulps or a
// subnormal apart, overflowing squares and infinities. With one query
// the fleet test is that query's test, so there it must agree both ways.
// NaN is never dead, and with no queries nothing is. The floor keeps it
// from passing vacuously: some fleet-dead points must sit on the first
// dead ulp past an edge.
func TestFleetDeadImpliesDeadForEachQuery(t *testing.T) {
	bases := []float64{0, 5e-324, 1e-310, -1e-310, 1, -1, 3.5, 1e300, -1e300}
	thresholds := []float64{0, 5e-324, 1e-320, 0.25, math.Nextafter(0.25, 1), 1, 1e300}
	rng := rand.New(rand.NewSource(61))
	tight := 0
	for trial := 0; trial < 600; trial++ {
		nq := 1 + rng.Intn(4)
		queries := make([]*query, nq)
		for i := range queries {
			lo := bases[rng.Intn(len(bases))]
			hi := lo
			switch rng.Intn(4) {
			case 0:
				hi = math.Nextafter(lo, math.Inf(1))
			case 1:
				hi = lo + 5e-324*float64(1+rng.Intn(3))
			case 2:
				hi = bases[rng.Intn(len(bases))]
			}
			if hi < lo {
				lo, hi = hi, lo
			}
			vals := []float64{lo, (lo + hi) / 2, hi}
			if math.IsInf(vals[1], 0) {
				vals[1] = lo
			}
			tpl, err := dtw.NewSpringTemplate(vals, dtw.SpringConfig{
				Threshold: thresholds[rng.Intn(len(thresholds))],
				Prefilter: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			queries[i] = &query{id: "q", tpl: tpl}
		}
		fleet := fleetRangeOf(queries)
		if !fleet.armed {
			t.Fatal("fleet range of finite-threshold queries is not armed")
		}
		for _, v := range adversarialPoints(fleet) {
			dead := fleet.dead(v)
			if math.IsNaN(v) && dead {
				t.Fatal("NaN is fleet-dead")
			}
			if nq == 1 && dead != springSkips(queries[0].tpl, v) {
				t.Fatalf("one query %v: fleet dead(%v) = %v, the query's own test disagrees", fleet, v, dead)
			}
			if !dead {
				continue
			}
			for qi, q := range queries {
				if !springSkips(q.tpl, v) {
					qmin, qmax, thr, _ := q.tpl.Prefilter()
					t.Fatalf("v = %v is fleet-dead (%+v) but live for query %d: range [%v, %v], threshold %v",
						v, fleet, qi, qmin, qmax, thr)
				}
			}
			if !fleet.dead(math.Nextafter(v, fleet.hi)) {
				tight++
			}
		}
	}
	if tight == 0 {
		t.Fatal("no fleet-dead point sat on the first dead ulp past an edge")
	}
	if fleetRangeOf(nil).armed {
		t.Fatal("an empty query set armed the fleet range")
	}
	t.Logf("%d fleet-dead points one ulp from a live one", tight)
}
