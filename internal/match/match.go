// Package match pairs salient features across two time series and prunes
// temporally inconsistent pairs, implementing paper §3.2.
//
// Matching proceeds in two stages. Dominant-pair identification (§3.2.1)
// finds, for each feature of X, the closest feature of Y by descriptor
// distance subject to amplitude (τa), scale-ratio (τs) and dominance (τd)
// thresholds. Inconsistency pruning (§3.2.2) then scores every pair by the
// harmonic combination of an alignment score and a similarity score, walks
// pairs in descending combined score, and keeps a pair only if its scope
// boundaries insert rank-consistently into the committed boundary lists of
// both series — guaranteeing the surviving feature scopes are identically
// ordered in the two series.
package match

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"sdtw/internal/sift"
)

// Config holds the matcher thresholds a program sets. The zero value
// selects the paper's defaults.
type Config struct {
	// MaxAmplitudeDiff is τa: the maximum absolute difference between the
	// mean amplitudes of two matched features. Zero means 0.5 on
	// normalised series; negative disables the test (the paper notes each
	// invariance bound can be turned off).
	MaxAmplitudeDiff float64
}

// The fixed matcher thresholds.
const (
	// maxScaleRatio is τs: the maximum ratio between the scales of two
	// matched features.
	maxScaleRatio = 2.5
	// dominanceRatio is τd: the best descriptor distance must be at least
	// τd times smaller than the runner-up's for the pair to be kept
	// (Lowe-style ratio test written as distance·τd <= secondDistance).
	// The runner-up search excludes features within the best match's
	// temporal scope: the relaxed extremum detection of §3.1.2 emits
	// clusters of near-duplicate features at adjacent positions and
	// scales, and a duplicate of the best match must not masquerade as a
	// competing alternative.
	dominanceRatio = 1.25
	// maxBoundarySlope bounds the local time stretch any committed pair
	// of scope boundaries may imply relative to its committed neighbours
	// (a slope sanity check on the alignment itself). Candidate pairs
	// implying steeper stretch are pruned as inconsistent.
	maxBoundarySlope = 4
)

// DefaultConfig returns the thresholds used by the experiment harness.
func DefaultConfig() Config {
	return Config{MaxAmplitudeDiff: 0.5}
}

func (c Config) withDefaults() Config {
	if c.MaxAmplitudeDiff == 0 {
		c.MaxAmplitudeDiff = 0.5
	}
	return c
}

// Pair is a matched pair of salient features, fi from X and fj from Y.
type Pair struct {
	I, J     int // indices into the feature slices of X and Y
	FI, FJ   sift.Feature
	DescDist float64 // Euclidean descriptor distance
	// Scores filled by scorePairs (§3.2.2):
	Align, Sim, Combined float64
}

// Alignment is the outcome of matching: the consistent pairs and the
// interval partitions their scope boundaries induce on both series
// (paper §3.3, Fig 9).
type Alignment struct {
	// Pairs are the surviving, temporally consistent matched pairs,
	// sorted by position in X.
	Pairs []Pair
	// BoundsX and BoundsY are the committed scope boundary positions in
	// the two series, strictly in corresponding order: BoundsX[k] in X
	// corresponds to BoundsY[k] in Y. Both are sorted ascending.
	BoundsX, BoundsY []int
	// NX, NY are the series lengths the alignment refers to.
	NX, NY int
}

// Swap returns the alignment with the roles of X and Y exchanged, used to
// build the symmetric band of §3.3.3. Pairs and boundary lists are shared
// structurally where safe and copied where mutation could leak.
func (a *Alignment) Swap() *Alignment {
	sw := &Alignment{NX: a.NY, NY: a.NX}
	sw.BoundsX = append([]int(nil), a.BoundsY...)
	sw.BoundsY = append([]int(nil), a.BoundsX...)
	sw.Pairs = make([]Pair, len(a.Pairs))
	for k, p := range a.Pairs {
		sw.Pairs[k] = Pair{
			I: p.J, J: p.I,
			FI: p.FJ, FJ: p.FI,
			DescDist: p.DescDist,
			Align:    p.Align, Sim: p.Sim, Combined: p.Combined,
		}
	}
	return sw
}

// Workspace holds the matcher's reusable scratch: the nearest-two scan's
// gathered indices and distances, the mutual-best memo, the dominant-pair
// list, and the pruning stage's boundary lists and sort temporaries. The
// zero value is ready to use; after a few calls at a given feature count
// MatchWS allocates nothing but the Alignment it returns. A Workspace is
// not safe for concurrent use — core.Engine keeps one per pooled
// computation workspace.
type Workspace struct {
	idx      []int     // threshold-passing pool indices of one scan, ascending
	dist     []float64 // dist[t] is the squared distance to pool[idx[t]]
	backBest []int     // nearest X feature per Y feature; -2 = not computed
	pairs    []Pair    // dominant pairs, then sorted by descending µcomb
	kept     []Pair    // pairs surviving inconsistency pruning

	blX, blY  boundaryList
	committed []bpoint // corresponding boundary points, sorted by x
	trial     []bpoint // slopesOK's trial insertion
	bounds    []bpoint // commitBoundaries' flattened boundary points
}

// workspaces recycles scratch for the callers that bring none (Match and
// DominantPairs).
var workspaces = sync.Pool{New: func() any { return new(Workspace) }}

// Match runs both stages over the feature sets of X (length nx) and Y
// (length ny) and returns the consistent alignment. An alignment with no
// pairs (empty boundary lists) is valid and signals the caller to fall
// back to diagonal constraints.
func Match(fx, fy []sift.Feature, nx, ny int, cfg Config) (*Alignment, error) {
	ws := workspaces.Get().(*Workspace)
	defer workspaces.Put(ws)
	return MatchWS(fx, fy, nx, ny, cfg, ws)
}

// MatchWS is Match over caller-owned scratch, for callers that already
// hold a per-goroutine workspace.
func MatchWS(fx, fy []sift.Feature, nx, ny int, cfg Config, ws *Workspace) (*Alignment, error) {
	if nx <= 0 || ny <= 0 {
		return nil, fmt.Errorf("match: series lengths must be positive, got %d and %d", nx, ny)
	}
	cfg = cfg.withDefaults()
	pairs := ws.dominantPairs(fx, fy, cfg)
	scorePairs(pairs)
	slices.SortStableFunc(pairs, func(a, b Pair) int { return cmp.Compare(b.Combined, a.Combined) })
	kept := ws.pruneInconsistent(pairs, nx, ny)
	// Pairs tying on X land where pattern-defeating quicksort leaves them,
	// exactly as under sort.Slice: the two run the same algorithm.
	slices.SortFunc(kept, func(a, b Pair) int { return cmp.Compare(a.FI.X, b.FI.X) })
	al := &Alignment{NX: nx, NY: ny, Pairs: append([]Pair(nil), kept...)}
	al.BoundsX, al.BoundsY = ws.commitBoundaries(kept, nx, ny)
	return al, nil
}

// DominantPairs implements §3.2.1: for every feature of X, the nearest
// feature of Y by descriptor distance is returned as a pair when it passes
// the τa/τs thresholds, dominates the runner-up by τd (runner-ups inside
// the best match's temporal scope are duplicates, not competitors, and are
// skipped), and is the mutual nearest match. Mutual-best matching
// suppresses the many-to-one garbage pairs that otherwise survive when a
// series region has no true counterpart. All nearest-neighbour scans work
// on squared distances; the Y→X back-check is memoised so each Y feature
// is scanned at most once.
func DominantPairs(fx, fy []sift.Feature, cfg Config) []Pair {
	ws := workspaces.Get().(*Workspace)
	defer workspaces.Put(ws)
	return append([]Pair(nil), ws.dominantPairs(fx, fy, cfg.withDefaults())...)
}

// dominantPairs is DominantPairs into the workspace's pair list (valid
// until the next call); cfg has its defaults applied.
func (ws *Workspace) dominantPairs(fx, fy []sift.Feature, cfg Config) []Pair {
	pairs := ws.pairs[:0]
	ws.backBest = slices.Grow(ws.backBest[:0], len(fy))[:len(fy)]
	for j := range ws.backBest {
		ws.backBest[j] = -2
	}
	const tdSq = dominanceRatio * dominanceRatio
	for i := range fx {
		bestJ, bestSq, secondSq := ws.nearestTwoSq(&fx[i], fy, cfg)
		if bestJ < 0 {
			continue
		}
		if !math.IsInf(secondSq, 1) {
			if bestSq*tdSq > secondSq {
				continue // ambiguous match: a distinct alternative is too close
			}
			if secondSq == bestSq {
				// Exact tie (including two perfect zero-distance matches):
				// maximally ambiguous regardless of the ratio.
				continue
			}
		}
		if ws.backBest[bestJ] == -2 {
			bi, _, _ := ws.nearestTwoSq(&fy[bestJ], fx, cfg)
			ws.backBest[bestJ] = bi
		}
		backI := ws.backBest[bestJ]
		if backI < 0 || !sameNeighborhood(&fx[i], &fx[backI]) {
			continue // not mutually nearest (up to duplicate clusters)
		}
		pairs = append(pairs, Pair{I: i, J: bestJ, FI: fx[i], FJ: fy[bestJ], DescDist: math.Sqrt(bestSq)})
	}
	ws.pairs = pairs
	return pairs
}

// nearestTwoSq returns the index and squared descriptor distance of the
// threshold-passing feature of pool closest to f, plus the squared
// distance of the best alternative *outside* the winner's duplicate
// cluster (the τd runner-up). Returns (-1, +Inf, +Inf) when no candidate
// passes the thresholds.
//
// The scan is gather → block → decide: collect the threshold-passing pool
// indices in order, compute all their squared distances four at a time
// (descriptorDistancesSq), then walk the stored distances through the
// sequential best/cluster/runner-up logic. A one-pass scan that abandons
// each sum against the running runner-up decides identically — a sum it
// abandons already exceeds the runner-up, so the full sum (terms are
// non-negative) takes the same d >= second branch — but serialises every
// pair's 64 additions behind one another for a cutoff too loose to skip
// many of them. A NaN descriptor sift emits with a NaN in its first bin
// (every bin, or a NaN run from bin 0 then zeros) makes both sums NaN
// before the first abandonment check, so they still decide identically;
// one whose NaN run starts past the first eight bins, after zeros, may
// part them.
//
//sdtw:hotpath
func (ws *Workspace) nearestTwoSq(f *sift.Feature, pool []sift.Feature, cfg Config) (int, float64, float64) {
	// dist grows in step with idx so both stay amortised appends.
	idx, dist := ws.idx[:0], ws.dist[:0]
	for j := range pool {
		if passesThresholds(f, &pool[j], cfg) {
			idx, dist = append(idx, j), append(dist, 0)
		}
	}
	// Pad to whole blocks by repeating the last index: a redundant lane in
	// the block kernel is cheaper than a serial scalar tail.
	n := len(idx)
	for len(idx)%4 != 0 {
		idx, dist = append(idx, idx[n-1]), append(dist, 0)
	}
	ws.idx, ws.dist = idx, dist
	descriptorDistancesSq(f.Descriptor, pool, idx, dist)

	bestJ, best, second := -1, math.Inf(1), math.Inf(1)
	for t, j := range idx[:n] {
		d := dist[t]
		if d >= second {
			continue
		}
		switch {
		case bestJ < 0:
			best, bestJ = d, j
		case sameNeighborhood(&pool[bestJ], &pool[j]):
			// Same duplicate cluster as the current best: improves the
			// best but never competes as a runner-up.
			if d < best {
				best, bestJ = d, j
			}
		case d < best:
			// New cluster takes the lead; the old best becomes the
			// distinct alternative.
			second = best
			best, bestJ = d, j
		default:
			second = d
		}
	}
	return bestJ, best, second
}

// descriptorDistancesSq fills out[t] with the squared Euclidean distance
// between descriptor a and pool[idx[t]].Descriptor (+Inf when the lengths
// differ). Four candidates advance per pass through four independent
// accumulators, so the floating-point adds of different pairs overlap
// instead of queueing behind one dependency chain; each pair's own sum
// still runs k = 0…len-1 in order with every product rounded, which makes
// the result bit-identical to sift.DescriptorDistanceSqAbandon's on every
// platform. len(idx) must be a multiple of four; a block containing a
// length mismatch takes the scalar function itself.
//
//sdtw:hotpath
func descriptorDistancesSq(a []float64, pool []sift.Feature, idx []int, out []float64) {
	inf := math.Inf(1)
	for t := 0; t+4 <= len(idx); t += 4 {
		b0, b1 := pool[idx[t]].Descriptor, pool[idx[t+1]].Descriptor
		b2, b3 := pool[idx[t+2]].Descriptor, pool[idx[t+3]].Descriptor
		if len(b0) != len(a) || len(b1) != len(a) || len(b2) != len(a) || len(b3) != len(a) {
			out[t] = sift.DescriptorDistanceSqAbandon(a, b0, inf)
			out[t+1] = sift.DescriptorDistanceSqAbandon(a, b1, inf)
			out[t+2] = sift.DescriptorDistanceSqAbandon(a, b2, inf)
			out[t+3] = sift.DescriptorDistanceSqAbandon(a, b3, inf)
			continue
		}
		b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
		var s0, s1, s2, s3 float64
		for k, av := range a {
			d0, d1, d2, d3 := av-b0[k], av-b1[k], av-b2[k], av-b3[k]
			s0 += float64(d0 * d0)
			s1 += float64(d1 * d1)
			s2 += float64(d2 * d2)
			s3 += float64(d3 * d3)
		}
		out[t], out[t+1], out[t+2], out[t+3] = s0, s1, s2, s3
	}
}

// sameNeighborhood reports whether two features of one series belong to
// the same duplicate cluster: their positions are within the larger scope
// (relaxed detection emits the same physical feature at several adjacent
// positions and scales).
func sameNeighborhood(a, b *sift.Feature) bool {
	r := a.Scope
	if b.Scope > r {
		r = b.Scope
	}
	if r < 4 {
		r = 4
	}
	d := float64(a.X - b.X)
	if d < 0 {
		d = -d
	}
	return d <= r
}

func passesThresholds(a, b *sift.Feature, cfg Config) bool {
	if cfg.MaxAmplitudeDiff >= 0 && math.Abs(a.Amplitude-b.Amplitude) > cfg.MaxAmplitudeDiff {
		return false
	}
	r := a.Sigma / b.Sigma
	if r < 1 {
		r = 1 / r
	}
	if r > maxScaleRatio {
		return false
	}
	return true
}

// scorePairs fills Align, Sim and Combined per §3.2.2:
//
//	µalign = ((scope_i + scope_j)/2) / (1 + |center_i − center_j|)
//	µsim   = (µdesc / µdesc_min) · (1 − ∆amp)
//	µcomb  = F-measure of the max-normalised scores.
//
// µdesc is a similarity; we use 1/(1+DescDist) so that µdesc_min (the
// weakest accepted match) normalises the ratio to >= 1 as the paper
// intends.
func scorePairs(pairs []Pair) {
	if len(pairs) == 0 {
		return
	}
	minDescSim := math.Inf(1)
	for _, p := range pairs {
		if s := 1 / (1 + p.DescDist); s < minDescSim {
			minDescSim = s
		}
	}
	if minDescSim <= 0 || math.IsInf(minDescSim, 1) {
		minDescSim = 1
	}
	maxAlign, maxSim := 0.0, 0.0
	for k := range pairs {
		p := &pairs[k]
		scopeAvg := (p.FI.Scope + p.FJ.Scope) / 2
		p.Align = scopeAvg / (1 + math.Abs(float64(p.FI.X-p.FJ.X)))
		descSim := 1 / (1 + p.DescDist)
		p.Sim = (descSim / minDescSim) * (1 - ampDiff(p.FI, p.FJ))
		if p.Align > maxAlign {
			maxAlign = p.Align
		}
		if p.Sim > maxSim {
			maxSim = p.Sim
		}
	}
	for k := range pairs {
		p := &pairs[k]
		na, ns := 0.0, 0.0
		if maxAlign > 0 {
			na = p.Align / maxAlign
		}
		if maxSim > 0 {
			ns = p.Sim / maxSim
		}
		if na+ns > 0 {
			p.Combined = 2 * na * ns / (na + ns)
		}
	}
}

// ampDiff is ∆amp: the percentage difference between the features' mean
// amplitudes within their scopes, clamped to [0,1].
func ampDiff(a, b sift.Feature) float64 {
	den := math.Max(math.Abs(a.Amplitude), math.Abs(b.Amplitude))
	if den == 0 {
		return 0
	}
	d := math.Abs(a.Amplitude-b.Amplitude) / den
	if d > 1 {
		return 1
	}
	return d
}
