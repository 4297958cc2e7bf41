package experiments

import (
	"fmt"
	"time"

	"sdtw/internal/core"
	"sdtw/internal/datasets"
	"sdtw/internal/eval"
	"sdtw/internal/match"
	"sdtw/internal/series"
	"sdtw/internal/sift"
)

// Scale trims workload sizes so experiments finish quickly in benchmarks
// while preserving class structure. Full reproduces the paper's sizes.
type Scale int

const (
	// Full uses the paper's data-set sizes (Table 1).
	Full Scale = iota
	// Medium uses roughly half the series per class.
	Medium
	// Small uses a handful of series per class for fast CI/bench runs.
	Small
)

// DatasetConfig returns the generator configuration for a paper data set
// at the given scale, keyed to a deterministic seed.
func DatasetConfig(name string, scale Scale, seed int64) datasets.Config {
	cfg := datasets.Config{Seed: seed}
	switch scale {
	case Full:
		// generator defaults reproduce Table 1
	case Medium:
		switch name {
		case "Gun":
			cfg.SeriesPerClass = 12
		case "Trace":
			cfg.SeriesPerClass = 12
		case "50Words":
			cfg.SeriesPerClass = 4
		}
	case Small:
		switch name {
		case "Gun":
			cfg.SeriesPerClass = 6
		case "Trace":
			cfg.SeriesPerClass = 5
		case "50Words":
			cfg.SeriesPerClass = 2
		}
	}
	return cfg
}

// LoadDataset generates a paper data set at the given scale.
func LoadDataset(name string, scale Scale, seed int64) (*datasets.Dataset, error) {
	return datasets.ByName(name, DatasetConfig(name, scale, seed))
}

// Workload bundles a data set with its precomputed full-DTW reference
// matrix, shared by every algorithm evaluated on it.
type Workload struct {
	Data *datasets.Dataset
	Ref  *eval.Matrix
}

// NewWorkload generates the data set and its reference matrix.
func NewWorkload(name string, scale Scale, seed int64) (*Workload, error) {
	d, err := LoadDataset(name, scale, seed)
	if err != nil {
		return nil, err
	}
	ref, err := eval.FullDTWMatrix(d.Series)
	if err != nil {
		return nil, fmt.Errorf("experiments: reference matrix for %s: %w", name, err)
	}
	return &Workload{Data: d, Ref: ref}, nil
}

// AlgoResult is the outcome of evaluating one algorithm on one workload.
type AlgoResult struct {
	Algorithm string
	Dataset   string
	// Retrieval accuracy accret(k) for k = 5 and 10.
	Top5Acc, Top10Acc float64
	// DistErr is the mean relative distance over-estimation errdist.
	DistErr float64
	// IntraClassErr is errdist restricted to same-class pairs.
	IntraClassErr float64
	// Cls5Acc, Cls10Acc are kNN classification agreements acccls(k).
	Cls5Acc, Cls10Acc float64
	// TimeGain is (t_dtw − t_*)/t_dtw, measured sequentially over a
	// deterministic pair sample (the paper's single-threaded protocol).
	TimeGain float64
	// CellsGain is the machine-independent pruning gain.
	CellsGain float64
	// MatchShare is MatchTime/(MatchTime+DPTime), Fig 17's breakdown.
	MatchShare float64
	// Timing carries the raw sequential timing sample.
	Timing eval.Timing
	// AvgPairs is the mean number of consistent salient pairs per
	// comparison (0 for non-adaptive algorithms).
	AvgPairs float64
	// ExtractTime is the one-time feature extraction cost for the whole
	// data set (reported separately per §4.2).
	ExtractTime time.Duration
	// Stats carries the raw pairwise accounting.
	Stats eval.PairStats
}

// Evaluate runs one algorithm over the workload: extracts every series'
// features once (outside the timed region, matching the paper's
// protocol), computes the constrained matrix over the held features, and
// derives every §4.2 measure against the reference.
func Evaluate(w *Workload, algo Algorithm) (AlgoResult, error) {
	return evaluate(core.NewEngine(algo.Opts), w, algo)
}

// evaluate is Evaluate on the given engine, built from algo.Opts.
func evaluate(engine *core.Engine, w *Workload, algo Algorithm) (AlgoResult, error) {
	res := AlgoResult{Algorithm: algo.Name, Dataset: w.Data.Name}
	feats, warm, err := engine.Warm(w.Data.Series)
	if err != nil {
		return res, err
	}
	res.ExtractTime = warm

	est, err := eval.EngineMatrix(engine, w.Data.Series, feats)
	if err != nil {
		return res, err
	}
	labels := w.Data.Labels()
	res.Top5Acc = eval.MeanRetrievalAccuracy(w.Ref, est, 5)
	res.Top10Acc = eval.MeanRetrievalAccuracy(w.Ref, est, 10)
	res.DistErr = eval.MeanDistanceError(w.Ref, est)
	res.IntraClassErr = eval.MeanIntraClassDistanceError(w.Ref, est, labels)
	res.Cls5Acc = eval.MeanClassificationAccuracy(w.Ref, est, labels, 5)
	res.Cls10Acc = eval.MeanClassificationAccuracy(w.Ref, est, labels, 10)
	res.CellsGain = est.Stats.CellsGain()
	res.Stats = est.Stats

	// Time gains come from a separate sequential pass: per-pair wall
	// times measured inside a parallel matrix computation carry scheduler
	// noise that swamps the signal.
	timing, err := eval.TimePairs(engine, w.Data.Series, feats, 200)
	if err != nil {
		return res, err
	}
	res.Timing = timing
	res.TimeGain = timing.Gain()
	res.MatchShare = timing.MatchShare()
	if algo.Opts.Band.Strategy.NeedsAlignment() && est.Stats.Pairs > 0 {
		res.AvgPairs = avgConsistentPairs(algo.Opts.Matcher, w.Data.Series, feats)
	}
	return res, nil
}

// avgConsistentPairs samples alignments across the data set to report the
// mean number of surviving salient pairs per comparison, matching the held
// features as Engine.Align does.
func avgConsistentPairs(cfg match.Config, data []series.Series, feats [][]sift.Feature) float64 {
	if len(data) < 2 {
		return 0
	}
	count, total := 0, 0
	step := len(data)/8 + 1
	for i := 0; i < len(data); i += step {
		j := (i + step) % len(data)
		if j == i {
			continue
		}
		al, err := match.Match(feats[i], feats[j], data[i].Len(), data[j].Len(), cfg)
		if err != nil {
			continue
		}
		total += len(al.Pairs)
		count++
	}
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}
