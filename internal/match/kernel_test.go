package match

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sdtw/internal/series"
	"sdtw/internal/sift"
)

// scalarNearestTwoSq is the one-pass nearest-two scan as it stood before
// the blocked kernel: every descriptor sum early-abandons against the
// running runner-up. It survives only here, as the reference the
// gather → block → decide scan must equal bit for bit.
func scalarNearestTwoSq(f *sift.Feature, pool []sift.Feature, cfg Config) (int, float64, float64) {
	bestJ, best, second := -1, math.Inf(1), math.Inf(1)
	for j := range pool {
		if !passesThresholds(f, &pool[j], cfg) {
			continue
		}
		d := sift.DescriptorDistanceSqAbandon(f.Descriptor, pool[j].Descriptor, second)
		if d >= second {
			continue
		}
		switch {
		case bestJ < 0:
			best, bestJ = d, j
		case sameNeighborhood(&pool[bestJ], &pool[j]):
			if d < best {
				best, bestJ = d, j
			}
		case d < best:
			second = best
			best, bestJ = d, j
		default:
			second = d
		}
	}
	return bestJ, best, second
}

// scalarMatch is Match over the scalar scan, with the sort package's
// sorts the pruning stage used before it moved into the workspace.
func scalarMatch(fx, fy []sift.Feature, nx, ny int, cfg Config) *Alignment {
	cfg = cfg.withDefaults()
	var pairs []Pair
	backBest := make([]int, len(fy))
	for j := range backBest {
		backBest[j] = -2
	}
	tdSq := cfg.DominanceRatio * cfg.DominanceRatio
	for i := range fx {
		bestJ, bestSq, secondSq := scalarNearestTwoSq(&fx[i], fy, cfg)
		if bestJ < 0 {
			continue
		}
		if cfg.DominanceRatio > 1 && !math.IsInf(secondSq, 1) && (bestSq*tdSq > secondSq || secondSq == bestSq) {
			continue
		}
		if !cfg.DisableMutualBest {
			if backBest[bestJ] == -2 {
				backBest[bestJ], _, _ = scalarNearestTwoSq(&fy[bestJ], fx, cfg)
			}
			if bi := backBest[bestJ]; bi < 0 || !sameNeighborhood(&fx[i], &fx[bi]) {
				continue
			}
		}
		pairs = append(pairs, Pair{I: i, J: bestJ, FI: fx[i], FJ: fy[bestJ], DescDist: math.Sqrt(bestSq)})
	}
	scorePairs(pairs)
	sort.SliceStable(pairs, func(a, b int) bool { return pairs[a].Combined > pairs[b].Combined })
	var ws Workspace
	kept := slices.Clone(ws.pruneInconsistent(pairs, nx, ny, cfg))
	sort.Slice(kept, func(a, b int) bool { return kept[a].FI.X < kept[b].FI.X })
	al := &Alignment{NX: nx, NY: ny, Pairs: kept}
	al.BoundsX, al.BoundsY = ws.commitBoundaries(kept, nx, ny)
	return al
}

// kernelFeatures draws n features over a length-nx series, built to reach
// the scan's corners. Roughly half of them copy a feature of from (when
// given) a few samples later — sharing its descriptor outright (a zero
// distance) or perturbing it — so long consistent alignments arise; the
// rest take descriptors from a small alphabet (exact ties), fresh random
// ones, or an incomparable length (+Inf inside a block). Positions
// collide (duplicate clusters, X ties) and amplitudes and scales fall on
// both sides of the thresholds.
func kernelFeatures(rng *rand.Rand, n, nx, bins int, alphabet [][]float64, from []sift.Feature) []sift.Feature {
	fresh := func() []float64 {
		desc := make([]float64, bins)
		for i := range desc {
			desc[i] = rng.Float64()
		}
		return desc
	}
	feats := make([]sift.Feature, n)
	for k := range feats {
		if len(from) > 0 && rng.Intn(2) == 0 {
			f := from[rng.Intn(len(from))]
			f.X = min(f.X+rng.Intn(4), nx-1)
			if rng.Intn(3) == 0 {
				f.Descriptor = slices.Clone(f.Descriptor)
				f.Descriptor[rng.Intn(len(f.Descriptor))] += 0.01 * rng.Float64()
			}
			feats[k] = f
			continue
		}
		var desc []float64
		switch rng.Intn(8) {
		case 0, 1:
			desc = alphabet[rng.Intn(len(alphabet))]
		case 2:
			desc = make([]float64, bins+2*(1+rng.Intn(2)))
		default:
			desc = fresh()
		}
		sigma := []float64{1.5, 2, 3, 5, 9}[rng.Intn(5)]
		feats[k] = sift.Feature{
			X:          rng.Intn(nx),
			Sigma:      sigma,
			Scope:      3 * sigma,
			Amplitude:  float64(rng.Intn(5)) * 0.3,
			Response:   rng.NormFloat64(),
			Descriptor: desc,
		}
	}
	sort.SliceStable(feats, func(a, b int) bool { return feats[a].X < feats[b].X })
	return feats
}

// plantNaN gives about a third of feats a NaN descriptor of a shape sift
// emits: normalize scales by 1/√Inf = 0 once a bin's gradient sum
// overflows, so the overflowing bins come out NaN and every other bin 0,
// and a NaN gradient makes the whole descriptor NaN. The planted NaN
// always reaches the first bin — every bin NaN, or a NaN run from bin 0
// followed by zeros — so the scalar scan's sum is NaN before its first
// abandonment check, as the blocked kernel's is.
func plantNaN(rng *rand.Rand, feats []sift.Feature) {
	for k := range feats {
		if rng.Intn(3) != 0 || len(feats[k].Descriptor) == 0 {
			continue
		}
		desc := make([]float64, len(feats[k].Descriptor))
		run := len(desc)
		if rng.Intn(2) == 0 {
			run = 1 + rng.Intn(len(desc))
		}
		for i := range desc[:run] {
			desc[i] = math.NaN()
		}
		feats[k].Descriptor = desc
	}
}

// checkNearestTwoDifferential draws one matching problem from the seed
// and requires the blocked scan and Match to equal the scalar reference.
// Bit 0 of nan plants NaN descriptors among the query features, bit 1
// among the pool's (plantNaN).
func checkNearestTwoDifferential(t *testing.T, seed int64, nx8, ny8, flags, nan uint8) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// Sizes 0–9 exercise every block remainder; bit 7 of the size picks a
	// realistic population instead.
	size := func(b uint8) int {
		if b&0x80 != 0 {
			return 10 + int(b&0x3f)
		}
		return int(b) % 10
	}
	cfg := DefaultConfig()
	if flags&1 != 0 {
		cfg.MaxAmplitudeDiff = -1
	}
	if flags&2 != 0 {
		cfg.MaxScaleRatio = 0.5
	}
	if flags&4 != 0 {
		cfg.DominanceRatio = 1
	}
	cfg.DisableMutualBest = flags&8 != 0
	if flags&16 != 0 {
		cfg.MaxBoundarySlope = 0.5
	}
	bins := []int{2, 8, 64}[int(flags>>5)%3]
	alphabet := make([][]float64, 4)
	for a := range alphabet {
		alphabet[a] = make([]float64, bins)
		for i := range alphabet[a] {
			alphabet[a][i] = float64(rng.Intn(3)) / 2
		}
	}
	const n = 200
	fx := kernelFeatures(rng, size(nx8), n, bins, alphabet, nil)
	fy := kernelFeatures(rng, size(ny8), n, bins, alphabet, fx)
	if nan&1 != 0 {
		plantNaN(rng, fx)
	}
	if nan&2 != 0 {
		plantNaN(rng, fy)
	}

	var ws Workspace
	dcfg := cfg.withDefaults()
	for i := range fx {
		gj, gb, gs := ws.nearestTwoSq(&fx[i], fy, dcfg)
		wj, wb, ws2 := scalarNearestTwoSq(&fx[i], fy, dcfg)
		if gj != wj || math.Float64bits(gb) != math.Float64bits(wb) || math.Float64bits(gs) != math.Float64bits(ws2) {
			t.Fatalf("scan of fx[%d] over %d features: blocked (%d, %v, %v) vs scalar (%d, %v, %v)",
				i, len(fy), gj, gb, gs, wj, wb, ws2)
		}
	}
	got, err := MatchWS(fx, fy, n, n, cfg, &ws)
	if err != nil {
		t.Fatal(err)
	}
	want := scalarMatch(fx, fy, n, n, cfg)
	if !sameAlignment(got, want) {
		t.Fatalf("alignments differ (|fx|=%d |fy|=%d cfg=%+v):\n got %+v\nwant %+v", len(fx), len(fy), cfg, got, want)
	}
}

// sameAlignment compares alignments exactly: indices, boundaries and the
// bits of every score.
func sameAlignment(a, b *Alignment) bool {
	if a.NX != b.NX || a.NY != b.NY || len(a.Pairs) != len(b.Pairs) ||
		!slices.Equal(a.BoundsX, b.BoundsX) || !slices.Equal(a.BoundsY, b.BoundsY) {
		return false
	}
	bits := math.Float64bits
	for k, p := range a.Pairs {
		q := b.Pairs[k]
		if p.I != q.I || p.J != q.J || bits(p.DescDist) != bits(q.DescDist) ||
			bits(p.Align) != bits(q.Align) || bits(p.Sim) != bits(q.Sim) || bits(p.Combined) != bits(q.Combined) {
			return false
		}
	}
	return true
}

func TestNearestTwoDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 3000; trial++ {
		checkNearestTwoDifferential(t, rng.Int63(), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(4)))
	}
}

// FuzzNearestTwoDifferential is the native-fuzzing entry to the same
// check (CI runs it for 30 s in the fuzz-smoke lane).
func FuzzNearestTwoDifferential(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(5), uint8(4), uint8(0), uint8(0))
	f.Add(int64(3), uint8(9), uint8(7), uint8(1|2|4), uint8(0))
	f.Add(int64(4), uint8(0x80|36), uint8(0x80|36), uint8(8|64), uint8(0))
	f.Add(int64(5), uint8(3), uint8(0x80|20), uint8(16|32), uint8(0))
	f.Add(int64(6), uint8(0x80|30), uint8(0x80|30), uint8(64), uint8(1|2))
	f.Add(int64(7), uint8(0x80|12), uint8(0x80|40), uint8(8|64), uint8(2))
	f.Fuzz(checkNearestTwoDifferential)
}

// TestMatchDifferentialOnExtractedFeatures runs the same comparison on
// real extractions, whose descriptors share one block per series — and on
// series stepping between −MaxFloat64 and +MaxFloat64, whose finite values
// give NaN descriptors (gradients overflow to ±Inf and normalize scales
// them by 1/√Inf = 0), against smooth series and against each other.
func TestMatchDifferentialOnExtractedFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	extract := func(n int, steps bool) []sift.Feature {
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Sin(float64(i)/(5+rng.Float64()*20)) + 0.3*rng.NormFloat64()
		}
		v = series.ZNormalize(v)
		if steps {
			w := 16 + rng.Intn(17)
			for i := range v {
				v[i] = math.MaxFloat64
				if (i/w)%2 == 1 {
					v[i] = -math.MaxFloat64
				}
			}
		}
		f, err := sift.Extract(v, sift.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	nanTrials := 0
	for trial := 0; trial < 80; trial++ {
		nx, ny := 120+rng.Intn(200), 120+rng.Intn(200)
		fx, fy := extract(nx, trial >= 40), extract(ny, trial >= 40 && trial%2 == 0)
		if trial >= 40 && hasNaNDescriptor(fx) {
			nanTrials++
		}
		got, err := Match(fx, fy, nx, ny, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if want := scalarMatch(fx, fy, nx, ny, Config{}); !sameAlignment(got, want) {
			t.Fatalf("trial %d: alignments differ:\n got %+v\nwant %+v", trial, got, want)
		}
	}
	if nanTrials < 30 {
		t.Fatalf("only %d of the 40 step series gave a NaN descriptor", nanTrials)
	}
}

// hasNaNDescriptor reports whether any feature's descriptor holds a NaN.
func hasNaNDescriptor(feats []sift.Feature) bool {
	for _, f := range feats {
		if slices.ContainsFunc(f.Descriptor, math.IsNaN) {
			return true
		}
	}
	return false
}

// TestMatchAllocatesOnlyItsAlignment pins the warmed matcher's footprint
// at the Alignment, its pair list and its two boundary lists — through
// Match itself, whose scratch comes from the package pool.
func TestMatchAllocatesOnlyItsAlignment(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; the pooled scratch is not reliably warm")
	}
	rng := rand.New(rand.NewSource(3))
	alphabet := [][]float64{make([]float64, 64)}
	fx := kernelFeatures(rng, 40, 200, 64, alphabet, nil)
	fy := kernelFeatures(rng, 40, 200, 64, alphabet, fx)
	pairs := 0
	run := func() {
		al, err := Match(fx, fy, 200, 200, Config{})
		if err != nil {
			t.Fatal(err)
		}
		pairs = len(al.Pairs)
	}
	run()
	if pairs < 2 || testing.AllocsPerRun(200, run) > 4 {
		t.Fatalf("warmed Match kept %d pairs and allocates %v objects per call, want several pairs and at most 4 allocations (Alignment, Pairs, BoundsX, BoundsY)",
			pairs, testing.AllocsPerRun(200, run))
	}
}
