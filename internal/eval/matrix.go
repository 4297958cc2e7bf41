package eval

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"sdtw/internal/core"
	"sdtw/internal/dtw"
	"sdtw/internal/series"
	"sdtw/internal/sift"
)

// PairStats aggregates the per-pair accounting of a distance matrix
// computation.
type PairStats struct {
	// Pairs is the number of (ordered) pairs evaluated.
	Pairs int
	// Cells is the total number of DTW grid cells filled.
	Cells int
	// GridCells is the total N·M over all pairs.
	GridCells int
	// MatchTime and DPTime are summed stage durations (paper tasks b, c).
	MatchTime, DPTime time.Duration
	// WallTime is the total wall-clock time across workers (sum of
	// per-pair durations, comparable with a sequential baseline).
	WallTime time.Duration
}

// CellsGain is the machine-independent pruning gain 1 − Cells/GridCells.
func (ps PairStats) CellsGain() float64 {
	if ps.GridCells == 0 {
		return 0
	}
	return 1 - float64(ps.Cells)/float64(ps.GridCells)
}

// Matrix is a full pairwise distance matrix over a data set. The diagonal
// is NaN so Ranking excludes self-matches.
type Matrix struct {
	D     [][]float64
	Stats PairStats
}

// FullDTWMatrix computes exact pairwise DTW distances over data using the
// full grid, parallelised across pairs. It is the reference (∆DTW) of all
// accuracy measures.
func FullDTWMatrix(data []series.Series) (*Matrix, error) {
	n := len(data)
	if n == 0 {
		return nil, fmt.Errorf("eval: empty data set")
	}
	m := newMatrix(n)
	type job struct{ i, j int }
	jobs := make(chan job, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				start := time.Now()
				d, err := dtw.Distance(data[jb.i].Values, data[jb.j].Values, nil)
				elapsed := time.Since(start)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("eval: full DTW (%d,%d): %w", jb.i, jb.j, err)
				}
				m.D[jb.i][jb.j] = d
				m.D[jb.j][jb.i] = d
				nm := len(data[jb.i].Values) * len(data[jb.j].Values)
				m.Stats.Pairs++
				m.Stats.Cells += nm
				m.Stats.GridCells += nm
				m.Stats.DPTime += elapsed
				m.Stats.WallTime += elapsed
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			jobs <- job{i, j}
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return m, nil
}

// EngineMatrix computes pairwise constrained distances with the given
// engine, parallelised across pairs. feats holds each series' features in
// the order of data, as engine.Warm returns them, so per-pair times
// reflect tasks (b) and (c) only, matching the paper's timing protocol.
// When the engine's band is asymmetric the matrix stores the X-driven
// value in both triangles (the paper's experiments likewise evaluate one
// direction per pair).
func EngineMatrix(engine *core.Engine, data []series.Series, feats [][]sift.Feature) (*Matrix, error) {
	n := len(data)
	if n == 0 {
		return nil, fmt.Errorf("eval: empty data set")
	}
	m := newMatrix(n)
	type job struct{ i, j int }
	jobs := make(chan job, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				start := time.Now()
				res, err := engine.DistanceUnderFeatures(nil, data[jb.i], feats[jb.i], data[jb.j], feats[jb.j], math.Inf(1))
				elapsed := time.Since(start)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("eval: engine distance (%d,%d): %w", jb.i, jb.j, err)
				}
				m.D[jb.i][jb.j] = res.Distance
				m.D[jb.j][jb.i] = res.Distance
				m.Stats.Pairs++
				m.Stats.Cells += res.CellsFilled
				m.Stats.GridCells += res.GridCells
				m.Stats.MatchTime += res.MatchTime
				m.Stats.DPTime += res.DPTime
				m.Stats.WallTime += elapsed
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			jobs <- job{i, j}
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return m, nil
}

// Timing is the outcome of a sequential timing pass: per-pair wall times
// of the full-grid reference and the constrained engine over the same
// deterministic pair sample. Sequential measurement mirrors the paper's
// single-threaded protocol and avoids the scheduler and memory-bandwidth
// noise that parallel matrix computation injects into per-pair times.
type Timing struct {
	// RefTime and EstTime are summed per-pair durations, each pair's the
	// least of its timed runs (see TimePairs).
	RefTime, EstTime time.Duration
	// MatchTime and DPTime split EstTime into the paper's tasks (b), (c).
	MatchTime, DPTime time.Duration
	// Pairs is the number of pairs timed.
	Pairs int
}

// Gain returns the paper's timegain = (t_dtw − t_*)/t_dtw.
func (t Timing) Gain() float64 {
	return TimeGain(t.RefTime.Seconds(), t.EstTime.Seconds())
}

// MatchShare returns MatchTime/(MatchTime+DPTime), Fig 17's breakdown.
func (t Timing) MatchShare() float64 {
	total := t.MatchTime + t.DPTime
	if total == 0 {
		return 0
	}
	return float64(t.MatchTime) / float64(total)
}

// timingRuns is how many times TimePairs times each pair on each side.
const timingRuns = 3

// TimePairs sequentially times full DTW against the engine's constrained
// distance over at most maxPairs deterministically sampled pairs. feats
// holds each series' features in the order of data, as engine.Warm
// returns them, so per-pair times cover only the paper's tasks (b)
// matching and (c) constrained DP. Each pair's full-DTW time and engine
// time is the least of timingRuns runs (its match and DP split from the
// fastest engine run), so one preemption of the process does not land in
// the sums.
func TimePairs(engine *core.Engine, data []series.Series, feats [][]sift.Feature, maxPairs int) (Timing, error) {
	n := len(data)
	if n < 2 {
		return Timing{}, fmt.Errorf("eval: timing needs at least 2 series, got %d", n)
	}
	if maxPairs <= 0 {
		maxPairs = 200
	}
	total := n * (n - 1) / 2
	stride := total/maxPairs + 1
	var t Timing
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if k++; (k-1)%stride != 0 {
				continue
			}
			var ref, est time.Duration
			var fastest core.Result
			for run := 0; run < timingRuns; run++ {
				start := time.Now()
				if _, err := dtw.Distance(data[i].Values, data[j].Values, nil); err != nil {
					return t, fmt.Errorf("eval: timing full DTW (%d,%d): %w", i, j, err)
				}
				if d := time.Since(start); run == 0 || d < ref {
					ref = d
				}
				start = time.Now()
				res, err := engine.DistanceUnderFeatures(nil, data[i], feats[i], data[j], feats[j], math.Inf(1))
				if err != nil {
					return t, fmt.Errorf("eval: timing engine (%d,%d): %w", i, j, err)
				}
				if d := time.Since(start); run == 0 || d < est {
					est, fastest = d, res
				}
			}
			t.RefTime += ref
			t.EstTime += est
			t.MatchTime += fastest.MatchTime
			t.DPTime += fastest.DPTime
			t.Pairs++
		}
	}
	return t, nil
}

func newMatrix(n int) *Matrix {
	m := &Matrix{D: make([][]float64, n)}
	for i := range m.D {
		m.D[i] = make([]float64, n)
		m.D[i][i] = math.NaN()
	}
	return m
}

// Row returns row i of the matrix (distances from object i to all others,
// NaN at i itself).
func (m *Matrix) Row(i int) []float64 { return m.D[i] }

// MeanRetrievalAccuracy averages accret(k) over every object used as a
// query: the overlap between the reference and estimated top-k rankings.
func MeanRetrievalAccuracy(ref, est *Matrix, k int) float64 {
	n := len(ref.D)
	accs := make([]float64, 0, n)
	for q := 0; q < n; q++ {
		topRef := Ranking(ref.Row(q))
		topEst := Ranking(est.Row(q))
		accs = append(accs, TopKOverlap(topRef, topEst, k))
	}
	return Mean(accs)
}

// MeanDistanceError averages errdist over all ordered pairs (i≠j).
func MeanDistanceError(ref, est *Matrix) float64 {
	n := len(ref.D)
	errs := make([]float64, 0, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			errs = append(errs, DistanceError(ref.D[i][j], est.D[i][j]))
		}
	}
	return Mean(errs)
}

// MeanIntraClassDistanceError averages errdist over same-class pairs only,
// the harder setting of the paper's Fig 15.
func MeanIntraClassDistanceError(ref, est *Matrix, labels []int) float64 {
	n := len(ref.D)
	errs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || labels[i] != labels[j] {
				continue
			}
			errs = append(errs, DistanceError(ref.D[i][j], est.D[i][j]))
		}
	}
	return Mean(errs)
}

// MeanClassificationAccuracy averages the Jaccard agreement between the
// kNN label sets derived from the reference and estimated matrices
// (acccls(k), §4.2).
func MeanClassificationAccuracy(ref, est *Matrix, labels []int, k int) float64 {
	n := len(ref.D)
	accs := make([]float64, 0, n)
	for q := 0; q < n; q++ {
		lref := KNNLabels(Ranking(ref.Row(q)), labels, k)
		lest := KNNLabels(Ranking(est.Row(q)), labels, k)
		accs = append(accs, JaccardLabels(lref, lest))
	}
	return Mean(accs)
}
