package main

import (
	"math"
	"time"
)

// naiveDTW is the deliberately plain reference: the full (n+1)x(m+1)
// accumulated-cost matrix with squared point costs and no band, no
// abandonment and no row reuse. It is the ledger's fixed "1.0x" row
// (machine.naive_dtw_cells_per_s) and the oracle the quality measures
// compare sDTW against, so it must stay this simple. mat is scratch of
// at least (len(x)+1)*(len(y)+1) values.
func naiveDTW(x, y, mat []float64) float64 {
	n, m := len(x), len(y)
	w := m + 1
	mat = mat[:(n+1)*w]
	for j := 0; j <= m; j++ {
		mat[j] = math.Inf(1)
	}
	mat[0] = 0
	for i := 1; i <= n; i++ {
		mat[i*w] = math.Inf(1)
		for j := 1; j <= m; j++ {
			d := x[i-1] - y[j-1]
			best := mat[(i-1)*w+j-1]
			if v := mat[(i-1)*w+j]; v < best {
				best = v
			}
			if v := mat[i*w+j-1]; v < best {
				best = v
			}
			mat[i*w+j] = d*d + best
		}
	}
	return mat[n*w+m]
}

// measureMachine reports the two yardsticks the DP throughput is read
// against: a large-copy memory bandwidth and the naive DTW's cell rate.
func measureMachine(m *metricSet) {
	const copyBytes = 64 << 20
	src := make([]byte, copyBytes)
	dst := make([]byte, copyBytes)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src) // fault the pages in
	var best time.Duration
	for r := 0; r < 5; r++ {
		start := time.Now()
		copy(dst, src)
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	m.set("machine.copy_gb_per_s", float64(copyBytes)/best.Seconds()/1e9)

	const n = 512
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i) / 17)
		y[i] = math.Sin(float64(i)/19 + 0.3)
	}
	mat := make([]float64, (n+1)*(n+1))
	best = 0
	for r := 0; r < 8; r++ {
		start := time.Now()
		sink = naiveDTW(x, y, mat)
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	m.set("machine.naive_dtw_cells_per_s", float64(n*n)/best.Seconds())
}

// sink keeps measured calls from being optimised away.
var sink float64
