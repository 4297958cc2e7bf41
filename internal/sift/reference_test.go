package sift

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"sdtw/internal/datasets"
	"sdtw/internal/scalespace"
)

// The ref* functions below are the straightforward extraction that
// Extract must reproduce bit for bit: the closure-based relaxed extremum
// test, a map-grouped cap, and a descriptor that evaluates its Gaussian
// weight per sample, over a pyramid from scalespace.Build (which
// scalespace's TestBuildMatchesReference holds to its own reference).

// refExtract builds the pyramid and hands the configuration as given to
// refExtractFromPyramid, which defaults it once — so a negative Epsilon
// means strict extrema on both entry points.
func refExtract(v []float64, cfg Config) ([]Feature, error) {
	if _, err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	pyr, err := scalespace.Build(v, cfg.ScaleSpace)
	if err != nil {
		return nil, err
	}
	return refExtractFromPyramid(v, pyr, cfg)
}

func refExtractFromPyramid(v []float64, pyr *scalespace.Pyramid, cfg Config) ([]Feature, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	maxResp := 0.0
	for _, oct := range pyr.Octaves {
		for _, lvl := range oct.DoG {
			for _, x := range lvl.Values {
				if a := math.Abs(x); a > maxResp {
					maxResp = a
				}
			}
		}
	}
	minResp := cfg.ContrastThreshold * maxResp
	var feats []Feature
	for _, oct := range pyr.Octaves {
		for l := 1; l+1 < len(oct.DoG); l++ {
			d := oct.DoG[l].Values
			below := oct.DoG[l-1].Values
			above := oct.DoG[l+1].Values
			for i := 1; i+1 < len(d); i++ {
				val := d[i]
				if cfg.ContrastThreshold >= 0 && math.Abs(val) < minResp {
					continue
				}
				if !refIsRelaxedExtremum(val, i, d, below, above, cfg.Epsilon) {
					continue
				}
				f := Feature{X: i * oct.Stride, Sigma: oct.DoG[l].Sigma, Octave: oct.Index, Level: l, Response: val}
				f.Scope = 3 * f.Sigma
				s, e := f.Start(len(v)), f.End(len(v))
				sum := 0.0
				for j := s; j <= e; j++ {
					sum += v[j]
				}
				f.Amplitude = sum / float64(e-s+1)
				feats = append(feats, f)
			}
		}
	}
	feats = refCapFeatures(feats, cfg.MaxFeatures)
	sort.Slice(feats, func(a, b int) bool {
		if feats[a].X != feats[b].X {
			return feats[a].X < feats[b].X
		}
		return feats[a].Sigma < feats[b].Sigma
	})
	bins := cfg.DescriptorBins
	block := make([]float64, len(feats)*bins)
	for k := range feats {
		f := &feats[k]
		oct := &pyr.Octaves[f.Octave]
		f.Descriptor = block[k*bins : (k+1)*bins : (k+1)*bins]
		refDescribe(f.Descriptor, oct.Gauss[f.Level].Values, f.X/oct.Stride, cfg)
	}
	return feats, nil
}

func refCapFeatures(feats []Feature, limit int) []Feature {
	if limit <= 0 || len(feats) <= limit {
		return feats
	}
	byOct := make(map[int][]Feature)
	maxOct := 0
	for _, f := range feats {
		byOct[f.Octave] = append(byOct[f.Octave], f)
		if f.Octave > maxOct {
			maxOct = f.Octave
		}
	}
	total := len(feats)
	kept := feats[:0]
	for oct := 0; oct <= maxOct; oct++ {
		group := byOct[oct]
		if len(group) == 0 {
			continue
		}
		quota := limit * len(group) / total
		if quota < 1 {
			quota = 1
		}
		if quota > len(group) {
			quota = len(group)
		}
		sort.Slice(group, func(a, b int) bool {
			return math.Abs(group[a].Response) > math.Abs(group[b].Response)
		})
		kept = append(kept, group[:quota]...)
	}
	return kept
}

func refIsRelaxedExtremum(val float64, i int, d, below, above []float64, eps float64) bool {
	slack := 1 - eps
	isMax, isMin := true, true
	check := func(nb float64) {
		if nb > 0 {
			if val < slack*nb {
				isMax = false
			}
		} else if val < nb {
			isMax = false
		}
		if nb < 0 {
			if val > slack*nb {
				isMin = false
			}
		} else if val > nb {
			isMin = false
		}
	}
	for off := -1; off <= 1; off++ {
		j := i + off
		if off != 0 {
			check(d[j])
		}
		if j >= 0 && j < len(below) {
			check(below[j])
		}
		if j >= 0 && j < len(above) {
			check(above[j])
		}
	}
	if val > 0 {
		return isMax
	}
	if val < 0 {
		return isMin
	}
	return false
}

func refDescribe(desc, g []float64, i int, cfg Config) {
	cells := cfg.DescriptorBins / 2
	window := cells * cfg.CellWidth
	half := window / 2
	if len(g) < 3 {
		return
	}
	wSigma := float64(window) / 2
	for t := -half; t < window-half; t++ {
		pos := i + t
		n := len(g)
		if pos < 0 {
			pos = 0
		} else if pos >= n {
			pos = n - 1
		}
		lo, hi := max(pos-1, 0), min(pos+1, n-1)
		grad := 0.0
		if hi != lo {
			grad = (g[hi] - g[lo]) / float64(hi-lo)
		}
		w := math.Exp(-0.5 * float64(t*t) / (wSigma * wSigma))
		cell := min(max((t+half)/cfg.CellWidth, 0), cells-1)
		if grad >= 0 {
			desc[2*cell] += float64(w * grad)
		} else {
			desc[2*cell+1] += float64(w * (-grad))
		}
	}
	if cfg.AmplitudeInvariant {
		ss := 0.0
		for _, x := range desc {
			ss += float64(x * x)
		}
		if ss == 0 {
			return
		}
		inv := 1 / math.Sqrt(ss)
		for i := range desc {
			desc[i] *= inv
		}
	}
}

// sameFeatures reports the first difference between got and want in any
// field, compared by bits, or "".
func sameFeatures(got, want []Feature) string {
	if len(got) != len(want) || (got == nil) != (want == nil) {
		return fmt.Sprintf("%d features (nil %v), reference %d (nil %v)", len(got), got == nil, len(want), want == nil)
	}
	bits := math.Float64bits
	for k := range want {
		g, w := got[k], want[k]
		if g.X != w.X || g.Octave != w.Octave || g.Level != w.Level ||
			bits(g.Sigma) != bits(w.Sigma) || bits(g.Response) != bits(w.Response) ||
			bits(g.Scope) != bits(w.Scope) || bits(g.Amplitude) != bits(w.Amplitude) {
			return fmt.Sprintf("feature %d is %+v, reference %+v", k, g, w)
		}
		if len(g.Descriptor) != len(w.Descriptor) {
			return fmt.Sprintf("feature %d descriptor has %d bins, reference %d", k, len(g.Descriptor), len(w.Descriptor))
		}
		for b := range w.Descriptor {
			if bits(g.Descriptor[b]) != bits(w.Descriptor[b]) {
				return fmt.Sprintf("feature %d bin %d is %v, reference %v", k, b, g.Descriptor[b], w.Descriptor[b])
			}
		}
	}
	return ""
}

// referenceInputs returns the series the differential test extracts
// from: Gun-, Trace- and 50Words-shaped series at each length, and
// random walks.
func referenceInputs() map[string][]float64 {
	in := make(map[string][]float64)
	for _, n := range []int{4, 5, 64, 150, 270, 1024} {
		cfg := datasets.Config{Seed: int64(n), SeriesPerClass: 2, Length: n}
		for _, d := range []*datasets.Dataset{datasets.Gun(cfg), datasets.Trace(cfg), datasets.FiftyWords(cfg)} {
			for i, s := range d.Series[:3] {
				in[fmt.Sprintf("%s/%d/%d", d.Name, n, i)] = s.Values
			}
		}
		rng := rand.New(rand.NewSource(int64(n)))
		walk := make([]float64, n)
		for i := 1; i < n; i++ {
			walk[i] = walk[i-1] + rng.NormFloat64()
		}
		in[fmt.Sprintf("walk/%d", n)] = walk
		// A periodic series: shifted copies of one window smooth to the
		// same bits, so keypoints tie on |Response| and the cap's
		// ranking must break the ties as the reference does.
		periodic := make([]float64, n)
		for i := range periodic {
			periodic[i] = float64((i*7)%13) - 6
		}
		in[fmt.Sprintf("periodic/%d", n)] = periodic
	}
	return in
}

// TestExtractMatchesReference holds Extract to the reference on every
// Feature field and every descriptor bit, under both amplitude settings
// and with the cap on and off. The inputs run concurrently, so under
// -race the pooled workspaces are shared between goroutines.
func TestExtractMatchesReference(t *testing.T) {
	inputs := referenceInputs()
	var cfgs []Config
	for _, amp := range []bool{true, false} {
		for _, maxF := range []int{-1, 48} {
			cfg := DefaultConfig()
			cfg.AmplitudeInvariant, cfg.MaxFeatures = amp, maxF
			cfgs = append(cfgs, cfg)
		}
	}
	strict := DefaultConfig()
	strict.Epsilon, strict.ContrastThreshold, strict.DescriptorBins = -1, -1, 16
	cfgs = append(cfgs, strict)
	var wg sync.WaitGroup
	for name, v := range inputs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, cfg := range cfgs {
				want, werr := refExtract(v, cfg)
				got, err := Extract(v, cfg)
				if (err != nil) != (werr != nil) {
					t.Errorf("%s: error %v, reference %v", name, err, werr)
					continue
				}
				if diff := sameFeatures(got, want); diff != "" {
					t.Errorf("%s (amplitude %v, max %d): %s", name, cfg.AmplitudeInvariant, cfg.MaxFeatures, diff)
				}
				if err != nil {
					continue
				}
				pyr, err := scalespace.Build(v, cfg.ScaleSpace)
				if err != nil {
					t.Errorf("%s: Build: %v", name, err)
					continue
				}
				fromPyr, err := ExtractFromPyramid(v, pyr, cfg)
				if err != nil {
					t.Errorf("%s: ExtractFromPyramid: %v", name, err)
					continue
				}
				want, _ = refExtractFromPyramid(v, pyr, cfg)
				if diff := sameFeatures(fromPyr, want); diff != "" {
					t.Errorf("%s: ExtractFromPyramid: %s", name, diff)
				}
			}
		}()
	}
	wg.Wait()
}

// TestExtractAllocations pins what a steady-state Extract allocates: the
// features and their descriptor block, with the pyramid, the detected
// keypoints and the weight table in the pooled workspace.
func TestExtractAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled workspaces and instruments allocations")
	}
	const maxAllocs = 8
	for _, n := range []int{150, 270, 1024} {
		d := datasets.Trace(datasets.Config{Seed: 1, SeriesPerClass: 1, Length: n})
		v := d.Series[0].Values
		cfg := DefaultConfig()
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := Extract(v, cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("length %d: %.1f allocations per Extract", n, allocs)
		if allocs > maxAllocs {
			t.Errorf("Extract at length %d allocates %.1f times, want <= %d", n, allocs, maxAllocs)
		}
	}
}

// BenchmarkExtract times Extract against the reference extraction on
// Trace-shaped series of the workloads' lengths.
func BenchmarkExtract(b *testing.B) {
	for _, n := range []int{150, 270, 1024} {
		v := datasets.Trace(datasets.Config{Seed: 1, SeriesPerClass: 1, Length: n}).Series[0].Values
		cfg := DefaultConfig()
		b.Run(fmt.Sprintf("%d/pooled", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Extract(v, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%d/reference", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := refExtract(v, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
