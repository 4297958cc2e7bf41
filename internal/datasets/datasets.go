// Package datasets synthesises the three evaluation workloads of the paper
// (Table 1): Gun (length 150, 50 series, 2 classes), Trace (length 275,
// 100 series, 4 classes) and 50Words (length 270, 450 series, 50 classes).
//
// The original UCR archives are not redistributable and are unavailable in
// this offline build, so each generator produces class-structured series
// with the same lengths, cardinalities and class counts, and with
// feature-scale profiles qualitatively matching the paper's Table 2: Gun
// is dominated by a large plateau feature, Trace by transient steps and
// oscillations, and 50Words by many fine features with few coarse ones.
// Instances within a class differ by the deformations DTW is designed to
// absorb — monotone time warps, shifts, amplitude jitter and additive
// noise — which is exactly the regime the sDTW constraints target.
package datasets

import (
	"fmt"
	"math"
	"math/rand"

	"sdtw/internal/series"
)

// Dataset is a labeled collection of equal-length time series.
type Dataset struct {
	// Name identifies the workload ("Gun", "Trace", "50Words", ...).
	Name string
	// Series holds the instances; Series[i].Label in [0, NumClasses).
	Series []series.Series
	// NumClasses is the number of distinct class labels.
	NumClasses int
	// Length is the common series length.
	Length int
}

// Len returns the number of series.
func (d *Dataset) Len() int { return len(d.Series) }

// Values returns the raw value slices, in order.
func (d *Dataset) Values() [][]float64 {
	out := make([][]float64, len(d.Series))
	for i, s := range d.Series {
		out[i] = s.Values
	}
	return out
}

// Labels returns the class labels, in order.
func (d *Dataset) Labels() []int {
	out := make([]int, len(d.Series))
	for i, s := range d.Series {
		out[i] = s.Label
	}
	return out
}

// Validate checks the structural invariants of the data set.
func (d *Dataset) Validate() error {
	if len(d.Series) == 0 {
		return fmt.Errorf("datasets: %s is empty", d.Name)
	}
	for i, s := range d.Series {
		if s.Len() != d.Length {
			return fmt.Errorf("datasets: %s series %d has length %d, want %d", d.Name, i, s.Len(), d.Length)
		}
		if s.Label < 0 || s.Label >= d.NumClasses {
			return fmt.Errorf("datasets: %s series %d has label %d outside [0,%d)", d.Name, i, s.Label, d.NumClasses)
		}
		if err := s.Validate(); err != nil {
			return fmt.Errorf("datasets: %s series %d: %w", d.Name, i, err)
		}
	}
	return nil
}

// Config scales a generator's output, letting benchmarks run on smaller
// slices of a workload without changing its character.
type Config struct {
	// Seed makes generation deterministic. The same seed always yields
	// the same data set.
	Seed int64
	// SeriesPerClass overrides the paper's per-class count when positive.
	SeriesPerClass int
	// Length overrides the paper's series length when positive.
	Length int
	// NoiseSigma overrides the generator's default observation noise when
	// non-negative. Negative means the generator default.
	NoiseSigma float64
	// WarpStrength overrides the default time-warp severity in [0,1).
	// Negative means the generator default.
	WarpStrength float64
}

func (c Config) noise(def float64) float64 {
	if c.NoiseSigma < 0 {
		return def
	}
	if c.NoiseSigma == 0 {
		return def
	}
	return c.NoiseSigma
}

func (c Config) warp(def float64) float64 {
	if c.WarpStrength < 0 || c.WarpStrength == 0 {
		return def
	}
	return c.WarpStrength
}

// Gun generates the 2-class gun/point workload: length 150, 25 series per
// class (50 total). Both classes share a rise–plateau–fall profile (the
// actor raising and lowering an arm); the Gun class adds a draw overshoot
// at the start of the plateau and a re-holster dip after it, the classic
// discriminating artefacts of the UCR original.
func Gun(cfg Config) *Dataset {
	length := cfg.Length
	if length <= 0 {
		length = 150
	}
	perClass := cfg.SeriesPerClass
	if perClass <= 0 {
		perClass = 25
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	noise := cfg.noise(0.01)
	warpStrength := cfg.warp(0.35)

	d := &Dataset{Name: "Gun", NumClasses: 2, Length: length}
	for class := 0; class < 2; class++ {
		for k := 0; k < perClass; k++ {
			proto := gunPrototype(rng, length, class == 0)
			warped := series.ApplyWarp(proto, series.RandomWarp(rng, 4, warpStrength), length)
			vals := series.AddNoise(rng, warped, noise)
			id := fmt.Sprintf("gun-%d-%02d", class, k)
			d.Series = append(d.Series, series.New(id, class, vals))
		}
	}
	return d
}

func gunPrototype(rng *rand.Rand, length int, isGun bool) []float64 {
	n := float64(length)
	// Wide onset/offset jitter creates the global shifts the paper's
	// adaptive-core constraints are designed to track (§3.3.3: fixed
	// cores assume global alignment; Gun and Trace violate it).
	rise := n * (0.15 + 0.15*rng.Float64())
	fall := n * (0.65 + 0.15*rng.Float64())
	edge := n * (0.05 + 0.02*rng.Float64())
	plateau := 0.9 + 0.1*rng.Float64()
	out := make([]float64, length)
	for i := range out {
		x := float64(i)
		v := plateau * (series.Sigmoid(x, rise, edge) - series.Sigmoid(x, fall, edge))
		if isGun {
			// Draw overshoot just after the rise and re-holster dip after
			// the fall: medium-scale features unique to the Gun class.
			v += series.GaussianBump(x, rise+edge, n*0.03, 0.18+0.05*rng.Float64())
			v -= series.GaussianBump(x, fall+edge*1.5, n*0.035, 0.22+0.05*rng.Float64())
		}
		out[i] = v
	}
	return out
}

// Trace generates the 4-class transient workload: length 275, 25 series
// per class (100 total). The classes model instrument transients: a plain
// step, a step preceded by an oscillation, a ramp collapsing in a step
// down, and a smooth bump followed by a step — step onset and deformation
// timing jittered per instance.
func Trace(cfg Config) *Dataset {
	length := cfg.Length
	if length <= 0 {
		length = 275
	}
	perClass := cfg.SeriesPerClass
	if perClass <= 0 {
		perClass = 25
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	noise := cfg.noise(0.008)
	warpStrength := cfg.warp(0.3)

	d := &Dataset{Name: "Trace", NumClasses: 4, Length: length}
	for class := 0; class < 4; class++ {
		for k := 0; k < perClass; k++ {
			proto := tracePrototype(rng, length, class)
			warped := series.ApplyWarp(proto, series.RandomWarp(rng, 5, warpStrength), length)
			vals := series.AddNoise(rng, warped, noise)
			id := fmt.Sprintf("trace-%d-%02d", class, k)
			d.Series = append(d.Series, series.New(id, class, vals))
		}
	}
	return d
}

func tracePrototype(rng *rand.Rand, length, class int) []float64 {
	n := float64(length)
	onset := n * (0.35 + 0.20*rng.Float64())
	edge := n * (0.02 + 0.01*rng.Float64())
	out := make([]float64, length)
	for i := range out {
		x := float64(i)
		var v float64
		switch class {
		case 0: // plain step up
			v = series.Sigmoid(x, onset, edge)
		case 1: // oscillation before the step
			v = series.Sigmoid(x, onset, edge)
			if x < onset {
				decay := math.Exp(-(onset - x) / (n * 0.12))
				v += 0.25 * decay * math.Sin(2*math.Pi*(onset-x)/(n*0.08))
			}
		case 2: // ramp up then step down
			ramp := x / n
			v = ramp * (1 - series.Sigmoid(x, onset, edge))
		default: // smooth bump then step
			v = series.GaussianBump(x, onset*0.55, n*0.07, 0.8) + 0.9*series.Sigmoid(x, onset*1.25, edge)
		}
		out[i] = v
	}
	return out
}

// FiftyWords generates the 50-class word-profile workload: length 270, 9
// series per class (450 total). Each class prototype is a band-limited
// random curve — a sum of random sinusoids biased towards high frequencies
// — giving many fine salient features and few coarse ones, the profile
// Table 2 reports for 50Words. Instances are warped, amplitude-jittered
// and noisy copies of their prototype.
func FiftyWords(cfg Config) *Dataset {
	length := cfg.Length
	if length <= 0 {
		length = 270
	}
	perClass := cfg.SeriesPerClass
	if perClass <= 0 {
		perClass = 9
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	noise := cfg.noise(0.012)
	warpStrength := cfg.warp(0.2)

	d := &Dataset{Name: "50Words", NumClasses: 50, Length: length}
	for class := 0; class < 50; class++ {
		proto := wordPrototype(rng, length)
		for k := 0; k < perClass; k++ {
			warped := series.ApplyWarp(proto, series.RandomWarp(rng, 6, warpStrength), length)
			amp := 0.9 + 0.2*rng.Float64()
			for i := range warped {
				warped[i] *= amp
			}
			vals := series.AddNoise(rng, warped, noise)
			id := fmt.Sprintf("words-%02d-%d", class, k)
			d.Series = append(d.Series, series.New(id, class, vals))
		}
	}
	return d
}

func wordPrototype(rng *rand.Rand, length int) []float64 {
	n := float64(length)
	type comp struct{ freq, amp, phase float64 }
	comps := make([]comp, 0, 16)
	// A single weak low-frequency carrier: Table 2 reports 50Words has
	// very few large-scale features, so coarse structure is minimal...
	comps = append(comps, comp{
		freq:  1 + 1.5*rng.Float64(),
		amp:   0.10 + 0.05*rng.Float64(),
		phase: 2 * math.Pi * rng.Float64(),
	})
	// ...and many higher-frequency components: the fine features.
	for c := 0; c < 13; c++ {
		comps = append(comps, comp{
			freq:  5 + 15*rng.Float64(),
			amp:   0.08 + 0.12*rng.Float64(),
			phase: 2 * math.Pi * rng.Float64(),
		})
	}
	out := make([]float64, length)
	for i := range out {
		t := float64(i) / n
		v := 0.0
		for _, c := range comps {
			v += c.amp * math.Sin(2*math.Pi*c.freq*t+c.phase)
		}
		out[i] = v
	}
	return series.Normalize01(out)
}

// All generates the three paper data sets with per-workload seeds derived
// from cfg.Seed.
func All(cfg Config) []*Dataset {
	gun := cfg
	gun.Seed = cfg.Seed*3 + 1
	trace := cfg
	trace.Seed = cfg.Seed*3 + 2
	words := cfg
	words.Seed = cfg.Seed*3 + 3
	return []*Dataset{Gun(gun), Trace(trace), FiftyWords(words)}
}

// ByName generates a paper data set by its (case-sensitive) name.
func ByName(name string, cfg Config) (*Dataset, error) {
	switch name {
	case "Gun", "gun":
		return Gun(cfg), nil
	case "Trace", "trace":
		return Trace(cfg), nil
	case "50Words", "50words", "words":
		return FiftyWords(cfg), nil
	default:
		return nil, fmt.Errorf("datasets: unknown data set %q (want Gun, Trace or 50Words)", name)
	}
}
