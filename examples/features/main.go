// Features: extract salient features from two related series, inspect
// their scales and scopes, visualise the consistent alignment, and show
// how the alignment shapes the DTW search band — the internals of sDTW
// made visible.
//
// Run with:
//
//	go run ./examples/features
package main

import (
	"fmt"
	"log"
	"math"
	"strings"

	"sdtw"
)

func main() {
	data := sdtw.GunDataset(sdtw.DatasetConfig{Seed: 4, SeriesPerClass: 2})
	x, y := data.Series[0], data.Series[1]

	fmt.Printf("series X = %s, Y = %s (both gun-class, independently warped)\n\n", x.ID, y.ID)
	plot("X", x.Values)
	plot("Y", y.Values)

	// Salient features: scale-space extrema with scopes (3σ) and
	// gradient descriptors.
	feats, err := sdtw.ExtractFeatures(x.Values, sdtw.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d salient features on X (position, scale σ, scope radius):\n", len(feats))
	for _, f := range feats {
		fmt.Printf("  x=%3d  σ=%5.2f  scope=±%4.1f  octave=%d\n", f.X, f.Sigma, f.Scope, f.Octave)
	}

	// The consistent alignment: matched pairs whose scope boundaries are
	// identically ordered on both series.
	eng := sdtw.NewEngine(sdtw.DefaultOptions())
	al, err := eng.Align(x, y)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconsistent salient pairs: %d\n", al.Pairs)
	fmt.Printf("corresponding scope boundaries (X <-> Y):\n")
	for k := range al.BoundsX {
		fmt.Printf("  %3d <-> %3d\n", al.BoundsX[k], al.BoundsY[k])
	}

	// The resulting locally relevant constraint, with the exact warp
	// path it needs to contain.
	_, path, err := sdtw.DTWPath(x.Values, y.Values)
	if err != nil {
		log.Fatal(err)
	}
	onPath := make(map[[2]int]bool, len(path))
	for _, s := range path {
		onPath[[2]int{s.I, s.J}] = true
	}

	fmt.Println("\nDTW grid under (ac,aw) constraints ('#' band, '*' optimal path):")
	opts := sdtw.DefaultOptions()
	opts.KeepBand = true
	res, err := sdtw.NewEngine(opts).Distance(x.Values, y.Values)
	if err != nil {
		log.Fatal(err)
	}
	drawBandWithPath(res, path, x.Len(), y.Len())
	fmt.Printf("\nband fills %d of %d cells (%.1f%% pruned); estimate %.5f\n",
		res.CellsFilled, res.GridCells, 100*res.CellsGain(), res.Distance)
}

// plot renders a series as a one-line ASCII sparkline plus a coarse
// multi-row profile.
func plot(name string, v []float64) {
	const rows, cols = 8, 75
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", cols))
	}
	for i, x := range v {
		c := i * cols / len(v)
		r := int((x - lo) / (hi - lo) * float64(rows-1))
		grid[rows-1-r][c] = '.'
	}
	fmt.Printf("%s:\n", name)
	for _, row := range grid {
		fmt.Printf("  |%s\n", row)
	}
	fmt.Printf("  +%s\n", strings.Repeat("-", cols))
}

// drawBandWithPath rasterises the constraint band and the optimal warp
// path onto a character grid (row 0 at the bottom, as in the paper's
// figures).
func drawBandWithPath(res sdtw.Result, path sdtw.Path, n, m int) {
	const rows, cols = 30, 74
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", cols))
	}
	for i := 0; i < res.Band.N(); i++ {
		r := i * rows / n
		for j := res.Band.Lo[i]; j <= res.Band.Hi[i]; j++ {
			grid[rows-1-r][j*cols/m] = '#'
		}
	}
	for _, s := range path {
		r := s.I * rows / n
		c := s.J * cols / m
		grid[rows-1-r][c] = '*'
	}
	for _, row := range grid {
		fmt.Printf("  |%s\n", row)
	}
	fmt.Printf("  +%s\n", strings.Repeat("-", cols))
}
