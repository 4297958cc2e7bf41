// Quickstart: compute an exact DTW distance, then the same distance under
// sDTW's locally relevant constraints, and inspect what the constraints
// bought — the fraction of the DTW grid pruned and the estimation error.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"sdtw"
)

func main() {
	// Two synthetic series: a smooth two-feature profile and a warped,
	// noisy copy of it — the regime DTW (and sDTW) is built for.
	rng := rand.New(rand.NewSource(1))
	n := 256
	x := make([]float64, n)
	for i := range x {
		t := float64(i) / float64(n)
		x[i] = gauss(t, 0.3, 0.04) - 0.7*gauss(t, 0.65, 0.08) + 0.02*rng.NormFloat64()
	}
	y := make([]float64, n)
	for i := range y {
		// The copy runs on a locally stretched clock: features shift.
		t := float64(i) / float64(n)
		warped := t + 0.08*math.Sin(2*math.Pi*t)
		y[i] = gauss(warped, 0.3, 0.04) - 0.7*gauss(warped, 0.65, 0.08) + 0.02*rng.NormFloat64()
	}

	// Exact DTW: the O(N·M) reference.
	exact, err := sdtw.DTW(x, y)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact DTW distance:         %.6f\n", exact)

	// sDTW with the paper's headline configuration: adaptive core &
	// adaptive width constraints derived from salient feature alignments.
	res, err := sdtw.Distance(x, y, sdtw.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sDTW (ac,aw) estimate:      %.6f\n", res.Distance)
	fmt.Printf("grid cells filled:          %d of %d (%.1f%% pruned)\n",
		res.CellsFilled, res.GridCells, 100*res.CellsGain())
	fmt.Printf("consistent salient pairs:   %d\n", res.Pairs)
	if exact > 0 {
		fmt.Printf("relative over-estimation:   %.2f%%\n", 100*(res.Distance-exact)/exact)
	}

	// The classical alternative: a fixed Sakoe-Chiba band of equal width
	// prunes a similar share of the grid but knows nothing about the
	// series' structure.
	fixed, err := sdtw.SakoeChibaDTW(x, y, 0.10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Sakoe-Chiba (10%%) estimate: %.6f", fixed)
	if exact > 0 {
		fmt.Printf("  (over-estimation %.2f%%)", 100*(fixed-exact)/exact)
	}
	fmt.Println()
}

func gauss(t, c, sd float64) float64 {
	d := (t - c) / sd
	return math.Exp(-0.5 * d * d)
}
