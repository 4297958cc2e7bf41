package sift

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"sdtw/internal/series"
)

// bumpSeries builds a smooth series with Gaussian bumps at the given
// centres (sd controls feature size).
func bumpSeries(n int, centres []int, sd, amp float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		for _, c := range centres {
			v[i] += series.GaussianBump(float64(i), float64(c), sd, amp)
		}
	}
	return v
}

func TestExtractFindsBumpLocations(t *testing.T) {
	v := bumpSeries(200, []int{50, 140}, 6, 1)
	feats, err := Extract(v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(feats) == 0 {
		t.Fatal("no features on bump series")
	}
	for _, c := range []int{50, 140} {
		found := false
		for _, f := range feats {
			if math.Abs(float64(f.X-c)) <= 8 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no feature near bump at %d; features: %+v", c, positions(feats))
		}
	}
}

func positions(feats []Feature) []int {
	out := make([]int, len(feats))
	for i, f := range feats {
		out[i] = f.X
	}
	return out
}

func TestExtractDetectsDips(t *testing.T) {
	// A dip must be detected, and its DoG response must have the
	// opposite sign of a peak's (smoothing pulls peaks down and dips up).
	strongestNear := func(v []float64, c int) (Feature, bool) {
		feats, err := Extract(v, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var best Feature
		found := false
		for _, f := range feats {
			if math.Abs(float64(f.X-c)) <= 10 && (!found || math.Abs(f.Response) > math.Abs(best.Response)) {
				best, found = f, true
			}
		}
		return best, found
	}
	peak, okP := strongestNear(bumpSeries(200, []int{100}, 8, 1), 100)
	dip, okD := strongestNear(bumpSeries(200, []int{100}, 8, -1), 100)
	if !okP || !okD {
		t.Fatalf("peak found=%v dip found=%v", okP, okD)
	}
	if peak.Response*dip.Response >= 0 {
		t.Fatalf("peak and dip responses share a sign: %v vs %v", peak.Response, dip.Response)
	}
}

func TestExtractScaleGrowsWithFeatureSize(t *testing.T) {
	meanSigma := func(sd float64) float64 {
		v := bumpSeries(400, []int{200}, sd, 1)
		feats, err := Extract(v, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		best, bestResp := 0.0, 0.0
		for _, f := range feats {
			if math.Abs(float64(f.X-200)) < 3*sd && math.Abs(f.Response) > bestResp {
				best, bestResp = f.Sigma, math.Abs(f.Response)
			}
		}
		if bestResp == 0 {
			t.Fatalf("no feature near centre for sd=%v", sd)
		}
		return best
	}
	if narrow, wide := meanSigma(4), meanSigma(30); wide <= narrow {
		t.Fatalf("feature scale did not grow with bump width: %v vs %v", wide, narrow)
	}
}

func TestExtractShiftInvariantPositions(t *testing.T) {
	// Shifting the series in time shifts features, approximately.
	v1 := bumpSeries(300, []int{100}, 8, 1)
	v2 := bumpSeries(300, []int{130}, 8, 1)
	f1, err := Extract(v1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Extract(v2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	strongest := func(fs []Feature) Feature {
		best := fs[0]
		for _, f := range fs {
			if math.Abs(f.Response) > math.Abs(best.Response) {
				best = f
			}
		}
		return best
	}
	s1, s2 := strongest(f1), strongest(f2)
	if math.Abs(float64(s2.X-s1.X-30)) > 8 {
		t.Fatalf("shift not tracked: %d -> %d", s1.X, s2.X)
	}
}

func TestExtractValueOffsetInvariance(t *testing.T) {
	// Adding a constant must not change detections or descriptors:
	// gradients see only differences.
	v := bumpSeries(250, []int{60, 180}, 7, 1)
	shifted := make([]float64, len(v))
	for i := range v {
		shifted[i] = v[i] + 42
	}
	f1, err := Extract(v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Extract(shifted, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(f1) != len(f2) {
		t.Fatalf("offset changed feature count: %d vs %d", len(f1), len(f2))
	}
	for i := range f1 {
		if f1[i].X != f2[i].X || f1[i].Octave != f2[i].Octave {
			t.Fatalf("offset moved feature %d", i)
		}
		if d := descriptorDistance(f1[i].Descriptor, f2[i].Descriptor); d > 1e-9 {
			t.Fatalf("offset changed descriptor %d by %v", i, d)
		}
	}
}

func TestExtractAmplitudeInvarianceToggle(t *testing.T) {
	v := bumpSeries(250, []int{60, 180}, 7, 1)
	doubled := make([]float64, len(v))
	for i := range v {
		doubled[i] = 2 * v[i]
	}
	cfg := DefaultConfig()
	f1, err := Extract(v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Extract(doubled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With amplitude invariance, matching descriptors of corresponding
	// features should be (nearly) identical.
	for i := range f1 {
		if i >= len(f2) {
			break
		}
		if f1[i].X == f2[i].X && f1[i].Octave == f2[i].Octave {
			if d := descriptorDistance(f1[i].Descriptor, f2[i].Descriptor); d > 1e-6 {
				t.Fatalf("amplitude-invariant descriptor changed by %v", d)
			}
		}
	}
	// Without it, descriptors scale with amplitude.
	cfg.AmplitudeInvariant = false
	g1, err := Extract(v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Extract(doubled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for i := range g1 {
		if i >= len(g2) {
			break
		}
		if g1[i].X == g2[i].X && g1[i].Octave == g2[i].Octave {
			if descriptorDistance(g1[i].Descriptor, g2[i].Descriptor) > 1e-6 {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("non-invariant descriptors did not react to amplitude scaling")
	}
}

func TestDescriptorLengthConfig(t *testing.T) {
	v := bumpSeries(300, []int{80, 150, 220}, 6, 1)
	for _, bins := range []int{4, 8, 16, 32, 64, 128} {
		cfg := DefaultConfig()
		cfg.DescriptorBins = bins
		feats, err := Extract(v, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range feats {
			if len(f.Descriptor) != bins {
				t.Fatalf("bins=%d: descriptor length %d", bins, len(f.Descriptor))
			}
		}
	}
}

func TestDescriptorInvalidConfigRejected(t *testing.T) {
	v := bumpSeries(100, []int{50}, 5, 1)
	cfg := DefaultConfig()
	cfg.DescriptorBins = 7 // odd
	if _, err := Extract(v, cfg); err == nil {
		t.Fatal("odd descriptor length accepted")
	}
	cfg.DescriptorBins = 0 // defaults to 64: fine
	if _, err := Extract(v, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDescriptorUnitNorm(t *testing.T) {
	v := bumpSeries(300, []int{80, 150, 220}, 6, 1)
	feats, err := Extract(v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range feats {
		ss := 0.0
		for _, x := range f.Descriptor {
			ss += x * x
		}
		if ss > 0 && math.Abs(math.Sqrt(ss)-1) > 1e-9 {
			t.Fatalf("descriptor norm = %v, want 1", math.Sqrt(ss))
		}
		for _, x := range f.Descriptor {
			if x < 0 {
				t.Fatalf("descriptor has negative bin %v", x)
			}
		}
	}
}

func TestScopeIs3Sigma(t *testing.T) {
	v := bumpSeries(300, []int{150}, 10, 1)
	feats, err := Extract(v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range feats {
		if math.Abs(f.Scope-3*f.Sigma) > 1e-9 {
			t.Fatalf("scope %v != 3σ (σ=%v)", f.Scope, f.Sigma)
		}
		if s, e := f.Start(300), f.End(300); s < 0 || e > 299 || s > e {
			t.Fatalf("scope bounds [%d,%d] invalid", s, e)
		}
	}
}

func TestStartEndClamping(t *testing.T) {
	f := Feature{X: 2, Scope: 10}
	if s := f.Start(100); s != 0 {
		t.Fatalf("Start near boundary = %d, want 0", s)
	}
	f = Feature{X: 98, Scope: 10}
	if e := f.End(100); e != 99 {
		t.Fatalf("End near boundary = %d, want 99", e)
	}
}

func TestScaleClass(t *testing.T) {
	tests := []struct {
		octave int
		want   ScaleClass
	}{{0, Fine}, {1, Medium}, {2, Rough}, {5, Rough}}
	for _, tc := range tests {
		f := Feature{Octave: tc.octave}
		if got := f.Class(); got != tc.want {
			t.Errorf("octave %d class = %v, want %v", tc.octave, got, tc.want)
		}
	}
	if Fine.String() != "fine" || Medium.String() != "medium" || Rough.String() != "rough" {
		t.Error("ScaleClass strings wrong")
	}
}

func TestCountByClass(t *testing.T) {
	feats := []Feature{{Octave: 0}, {Octave: 0}, {Octave: 1}, {Octave: 3}}
	c := CountByClass(feats)
	if c[Fine] != 2 || c[Medium] != 1 || c[Rough] != 1 {
		t.Fatalf("CountByClass = %v", c)
	}
}

func TestMaxFeaturesCap(t *testing.T) {
	// Detected keypoints arrive grouped by octave: 30 fine, 12 medium and
	// 2 rough, with distinct responses.
	rng := rand.New(rand.NewSource(3))
	var all []Feature
	for oct, n := range []int{30, 12, 2} {
		for range n {
			all = append(all, Feature{Octave: oct, Response: rng.NormFloat64()})
		}
	}
	maxResp := 0.0
	for _, f := range all {
		maxResp = math.Max(maxResp, math.Abs(f.Response))
	}
	capped := capFeatures(slices.Clone(all), 10)
	// Proportional quotas may slightly exceed the cap through per-octave
	// minimums, but never the uncapped count.
	if len(capped) > 10+3 || len(capped) >= len(all) {
		t.Fatalf("cap kept %d of %d features", len(capped), len(all))
	}
	perOctave := map[int]int{}
	found := false
	for _, f := range capped {
		perOctave[f.Octave]++
		found = found || math.Abs(f.Response) == maxResp
	}
	if perOctave[0] != 6 || perOctave[1] != 2 || perOctave[2] != 1 {
		t.Fatalf("per-octave quotas %v, want 6, 2 and 1", perOctave)
	}
	// Capped features are the strong ones: the max response survives.
	if !found {
		t.Fatal("cap discarded the strongest feature")
	}
	if got := capFeatures(slices.Clone(all), len(all)); len(got) != len(all) {
		t.Fatalf("cap at the feature count kept %d of %d", len(got), len(all))
	}
	// Extract keeps at most maxFeatures of a noise series' many keypoints,
	// up to one more per octave.
	v := make([]float64, 400)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	feats, err := Extract(v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(feats) > maxFeatures+3 {
		t.Fatalf("Extract kept %d features, cap %d", len(feats), maxFeatures)
	}
}

func TestFeaturesSortedByPosition(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	v := make([]float64, 300)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	feats, err := Extract(v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(feats); i++ {
		if feats[i].X < feats[i-1].X {
			t.Fatal("features not sorted by position")
		}
	}
}

func TestAmplitudeIsScopeMean(t *testing.T) {
	// A feature on a constant-offset region should carry that offset as
	// its amplitude.
	v := make([]float64, 200)
	for i := range v {
		v[i] = 3 + series.GaussianBump(float64(i), 100, 8, 1)
	}
	feats, err := Extract(v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range feats {
		if f.Amplitude < 3-0.1 || f.Amplitude > 4+0.1 {
			t.Fatalf("amplitude %v outside plausible [3,4] range", f.Amplitude)
		}
	}
}

func TestExtractTooShortSeries(t *testing.T) {
	if _, err := Extract([]float64{1, 2}, DefaultConfig()); err == nil {
		t.Fatal("2-sample series accepted")
	}
}

// descriptorDistance is the Euclidean descriptor distance the tests
// measure with, over the squared scan matching uses.
func descriptorDistance(a, b []float64) float64 {
	return math.Sqrt(DescriptorDistanceSqAbandon(a, b, math.Inf(1)))
}

func TestDescriptorDistanceSqAbandon(t *testing.T) {
	a := []float64{1, 0, 0}
	if d := DescriptorDistanceSqAbandon(a, []float64{0, 1, 0}, math.Inf(1)); d != 2 {
		t.Fatalf("squared distance = %v, want 2", d)
	}
	if d := DescriptorDistanceSqAbandon(a, a, math.Inf(1)); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
	if d := DescriptorDistanceSqAbandon(a, []float64{1, 0}, math.Inf(1)); !math.IsInf(d, 1) {
		t.Fatalf("length mismatch distance = %v, want +Inf", d)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(130)
		a := make([]float64, n)
		b := make([]float64, n)
		exact := 0.0
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
			exact += (a[i] - b[i]) * (a[i] - b[i])
		}
		// Generous cutoff: must compute exactly.
		got := DescriptorDistanceSqAbandon(a, b, math.Inf(1))
		if math.Abs(got-exact) > 1e-9*(1+exact) {
			t.Fatalf("squared distance %v != exact %v", got, exact)
		}
		// Cutoff below the true value: must abandon.
		if exact > 0 {
			got = DescriptorDistanceSqAbandon(a, b, exact/4)
			if !math.IsInf(got, 1) {
				t.Fatalf("no abandon below cutoff: %v", got)
			}
		}
	}
}

func TestExtractDeterministic(t *testing.T) {
	v := bumpSeries(300, []int{70, 180, 240}, 6, 1)
	f1, err := Extract(v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Extract(v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(f1) != len(f2) {
		t.Fatal("extraction not deterministic")
	}
	for i := range f1 {
		if f1[i].X != f2[i].X || f1[i].Sigma != f2[i].Sigma {
			t.Fatal("extraction not deterministic")
		}
	}
}

// TestDescriptorsShareOneBlock pins the layout the matcher's blocked
// kernel reads: one Extract's descriptors are consecutive, capacity-capped
// windows of a single allocation, in feature order.
func TestDescriptorsShareOneBlock(t *testing.T) {
	feats, err := Extract(bumpSeries(300, []int{40, 110, 190, 260}, 6, 1), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(feats) < 2 {
		t.Fatalf("need several features, got %d", len(feats))
	}
	bins := len(feats[0].Descriptor)
	base := uintptr(unsafe.Pointer(&feats[0].Descriptor[0]))
	for k, f := range feats {
		if len(f.Descriptor) != bins || cap(f.Descriptor) != bins {
			t.Fatalf("feature %d: descriptor len %d cap %d, want both %d (a window must not reach its neighbour)",
				k, len(f.Descriptor), cap(f.Descriptor), bins)
		}
		if at, want := uintptr(unsafe.Pointer(&f.Descriptor[0])), base+uintptr(k*bins*8); at != want {
			t.Fatalf("feature %d: descriptor at %#x, want %#x (%d windows after the first)", k, at, want, k)
		}
	}
}
