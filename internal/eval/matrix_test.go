package eval

import (
	"math"
	"testing"

	"sdtw/internal/core"
	"sdtw/internal/datasets"
	"sdtw/internal/dtw"
	"sdtw/internal/series"
)

func smallDataset(t *testing.T) *datasets.Dataset {
	t.Helper()
	d := datasets.Gun(datasets.Config{Seed: 17, SeriesPerClass: 4})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFullDTWMatrixProperties(t *testing.T) {
	d := smallDataset(t)
	m, err := FullDTWMatrix(d.Series)
	if err != nil {
		t.Fatal(err)
	}
	n := d.Len()
	if len(m.D) != n {
		t.Fatalf("matrix size %d, want %d", len(m.D), n)
	}
	for i := 0; i < n; i++ {
		if !math.IsNaN(m.D[i][i]) {
			t.Fatalf("diagonal (%d,%d) = %v, want NaN", i, i, m.D[i][i])
		}
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if m.D[i][j] != m.D[j][i] {
				t.Fatalf("matrix not symmetric at (%d,%d)", i, j)
			}
			// Spot-check against a direct computation.
			if i < 2 && j < 3 {
				want, err := dtw.Distance(d.Series[i].Values, d.Series[j].Values, nil)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(m.D[i][j]-want) > 1e-9 {
					t.Fatalf("matrix (%d,%d) = %v, direct = %v", i, j, m.D[i][j], want)
				}
			}
		}
	}
	if m.Stats.Pairs != n*(n-1)/2 {
		t.Fatalf("pairs = %d, want %d", m.Stats.Pairs, n*(n-1)/2)
	}
	if m.Stats.CellsGain() != 0 {
		t.Fatalf("full matrix cells gain = %v", m.Stats.CellsGain())
	}
}

func TestEngineMatrixDominatesReference(t *testing.T) {
	d := smallDataset(t)
	ref, err := FullDTWMatrix(d.Series)
	if err != nil {
		t.Fatal(err)
	}
	engine := core.NewEngine(core.DefaultOptions())
	feats, _, err := engine.Warm(d.Series)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EngineMatrix(engine, d.Series, feats)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.D {
		for j := range ref.D {
			if i == j {
				continue
			}
			if est.D[i][j] < ref.D[i][j]-1e-9 {
				t.Fatalf("constrained estimate underestimates at (%d,%d)", i, j)
			}
		}
	}
	if est.Stats.CellsGain() <= 0 {
		t.Fatalf("engine matrix pruned nothing: gain %v", est.Stats.CellsGain())
	}
}

func TestMatrixMetricsPerfectEstimator(t *testing.T) {
	d := smallDataset(t)
	ref, err := FullDTWMatrix(d.Series)
	if err != nil {
		t.Fatal(err)
	}
	labels := d.Labels()
	if acc := MeanRetrievalAccuracy(ref, ref, 5); acc != 1 {
		t.Errorf("self retrieval accuracy = %v", acc)
	}
	if e := MeanDistanceError(ref, ref); e != 0 {
		t.Errorf("self distance error = %v", e)
	}
	if e := MeanIntraClassDistanceError(ref, ref, labels); e != 0 {
		t.Errorf("self intra-class error = %v", e)
	}
	if acc := MeanClassificationAccuracy(ref, ref, labels, 5); acc != 1 {
		t.Errorf("self classification accuracy = %v", acc)
	}
}

func TestMatrixMetricsDegradeWithNarrowBand(t *testing.T) {
	d := smallDataset(t)
	ref, err := FullDTWMatrix(d.Series)
	if err != nil {
		t.Fatal(err)
	}
	mkEst := func(widthFrac float64) *Matrix {
		opts := core.DefaultOptions()
		opts.Band.Strategy = 1 // FixedCoreFixedWidth
		opts.Band.WidthFrac = widthFrac
		engine := core.NewEngine(opts)
		feats, _, err := engine.Warm(d.Series)
		if err != nil {
			t.Fatal(err)
		}
		est, err := EngineMatrix(engine, d.Series, feats)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	narrow := mkEst(0.04)
	wide := mkEst(0.5)
	if MeanDistanceError(ref, narrow) <= MeanDistanceError(ref, wide) {
		t.Fatalf("narrow band error %v not above wide %v",
			MeanDistanceError(ref, narrow), MeanDistanceError(ref, wide))
	}
	if MeanRetrievalAccuracy(ref, narrow, 5) > MeanRetrievalAccuracy(ref, wide, 5) {
		t.Fatalf("narrow band retrieval above wide band")
	}
}

func TestEmptyDataRejected(t *testing.T) {
	if _, err := FullDTWMatrix(nil); err == nil {
		t.Fatal("empty data accepted by FullDTWMatrix")
	}
	if _, err := EngineMatrix(core.NewEngine(core.DefaultOptions()), nil, nil); err == nil {
		t.Fatal("empty data accepted by EngineMatrix")
	}
}

func TestTimePairs(t *testing.T) {
	d := smallDataset(t)
	engine := core.NewEngine(core.DefaultOptions())
	feats, _, err := engine.Warm(d.Series)
	if err != nil {
		t.Fatal(err)
	}
	timing, err := TimePairs(engine, d.Series, feats, 10)
	if err != nil {
		t.Fatal(err)
	}
	if n := engine.Extractions(); n != int64(len(d.Series)) {
		t.Fatalf("%d extractions for %d series: timing extracted again", n, len(d.Series))
	}
	if timing.Pairs == 0 || timing.Pairs > 10+4 {
		t.Fatalf("timed %d pairs, want ≈10", timing.Pairs)
	}
	if timing.RefTime <= 0 || timing.EstTime <= 0 {
		t.Fatalf("timing durations not positive: %+v", timing)
	}
	if g := timing.Gain(); g <= -1 || g >= 1 {
		t.Fatalf("gain %v out of plausible range", g)
	}
	if s := timing.MatchShare(); s < 0 || s > 1 {
		t.Fatalf("match share %v out of range", s)
	}
}

func TestTimePairsTooFewSeries(t *testing.T) {
	engine := core.NewEngine(core.DefaultOptions())
	if _, err := TimePairs(engine, []series.Series{{Values: []float64{1}}}, nil, 5); err == nil {
		t.Fatal("single series accepted")
	}
}

func TestTimingZeroValues(t *testing.T) {
	var tm Timing
	if tm.Gain() != 0 {
		t.Errorf("zero timing gain = %v", tm.Gain())
	}
	if tm.MatchShare() != 0 {
		t.Errorf("zero timing match share = %v", tm.MatchShare())
	}
}
