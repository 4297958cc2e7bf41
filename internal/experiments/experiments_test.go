package experiments

import (
	"strings"
	"testing"
)

// All experiment tests run at Small scale: the point is to verify the
// runners are wired correctly, not to reproduce the paper's numbers (the
// benchmark suite and cmd/sdtwbench do that at full scale).

func TestTable1(t *testing.T) {
	rows, err := Table1(Full, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	want := []Table1Row{
		{"Gun", 150, 50, 2},
		{"Trace", 275, 100, 4},
		{"50Words", 270, 450, 50},
	}
	for i, w := range want {
		if rows[i] != w {
			t.Fatalf("row %d = %+v, want %+v", i, rows[i], w)
		}
	}
	out := RenderTable1(rows)
	for _, name := range []string{"Gun", "Trace", "50Words"} {
		if !strings.Contains(out, name) {
			t.Fatalf("rendered table missing %s:\n%s", name, out)
		}
	}
}

func TestTable2(t *testing.T) {
	rows, err := Table2(Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Total <= 0 {
			t.Fatalf("%s has no salient points", r.Dataset)
		}
		if r.Total != r.Fine+r.Medium+r.Rough {
			t.Fatalf("%s total %v != %v+%v+%v", r.Dataset, r.Total, r.Fine, r.Medium, r.Rough)
		}
		if r.ExtractPerSeries <= 0 {
			t.Fatalf("%s extraction time not measured", r.Dataset)
		}
	}
	// The paper's qualitative profile: Gun's rough share beats 50Words'.
	gunRough := rows[0].Rough / rows[0].Total
	wordsRough := rows[2].Rough / rows[2].Total
	if gunRough <= wordsRough {
		t.Fatalf("rough-share ordering violated: Gun %.3f <= 50Words %.3f", gunRough, wordsRough)
	}
	if out := RenderTable2(rows); !strings.Contains(out, "Fine") {
		t.Fatalf("rendered table 2 malformed:\n%s", out)
	}
}

func TestStandardAlgorithmsGrid(t *testing.T) {
	algos := StandardAlgorithms()
	if len(algos) != 9 {
		t.Fatalf("standard grid has %d algorithms, want 9", len(algos))
	}
	names := map[string]bool{}
	for _, a := range algos {
		names[a.Name] = true
	}
	for _, want := range []string{"fc,fw 6%", "fc,fw 10%", "fc,fw 20%", "fc,aw",
		"ac,fw 6%", "ac,fw 10%", "ac,fw 20%", "ac,aw", "ac2,aw"} {
		if !names[want] {
			t.Fatalf("missing algorithm %q", want)
		}
	}
}

func TestWithDescriptorBins(t *testing.T) {
	a := AdaptiveAlgorithms()[0].WithDescriptorBins(16)
	if a.Opts.Features.DescriptorBins != 16 {
		t.Fatalf("descriptor bins = %d", a.Opts.Features.DescriptorBins)
	}
	// The original must stay untouched (value semantics).
	if AdaptiveAlgorithms()[0].Opts.Features.DescriptorBins == 16 {
		t.Fatal("WithDescriptorBins mutated the source")
	}
}

func TestFig13SmallGun(t *testing.T) {
	results, err := Fig13("Gun", Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 9 {
		t.Fatalf("got %d results, want 9", len(results))
	}
	byName := map[string]AlgoResult{}
	for _, r := range results {
		byName[r.Algorithm] = r
		if r.Top5Acc < 0 || r.Top5Acc > 1 || r.Top10Acc < 0 || r.Top10Acc > 1 {
			t.Fatalf("%s accuracy out of range: %+v", r.Algorithm, r)
		}
		if r.CellsGain <= 0 || r.CellsGain >= 1 {
			t.Fatalf("%s cells gain out of range: %v", r.Algorithm, r.CellsGain)
		}
		if r.DistErr < 0 {
			t.Fatalf("%s negative distance error: %v", r.Algorithm, r.DistErr)
		}
	}
	// Paper Fig 13/14: (ac,aw) is far more accurate than (fc,fw 6%) on
	// Gun, and widening a fixed band improves accuracy.
	if byName["ac,aw"].DistErr >= byName["fc,fw 6%"].DistErr {
		t.Fatalf("(ac,aw) error %v not below (fc,fw 6%%) %v",
			byName["ac,aw"].DistErr, byName["fc,fw 6%"].DistErr)
	}
	if byName["fc,fw 20%"].DistErr >= byName["fc,fw 6%"].DistErr {
		t.Fatalf("wider fixed band not more accurate")
	}
	if out := RenderFig13(results); !strings.Contains(out, "ac,aw") {
		t.Fatalf("rendered fig13 malformed:\n%s", out)
	}
	if out := RenderFig14(results); !strings.Contains(out, "disterr") {
		t.Fatalf("rendered fig14 malformed:\n%s", out)
	}
}

func TestFig15SmallTrace(t *testing.T) {
	results, err := Fig13("Trace", Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AlgoResult{}
	for _, r := range results {
		if r.Dataset != "Trace" {
			t.Fatalf("the Trace grid ran on %s", r.Dataset)
		}
		byName[r.Algorithm] = r
		if r.IntraClassErr < 0 {
			t.Fatalf("%s negative intra-class error", r.Algorithm)
		}
	}
	// Paper Fig 15: fixed-core algorithms are especially error prone on
	// intra-class Trace pairs; adaptive cores bring errors far down.
	if byName["ac,aw"].IntraClassErr >= byName["fc,fw 6%"].IntraClassErr {
		t.Fatalf("(ac,aw) intra-class error %v not below (fc,fw 6%%) %v",
			byName["ac,aw"].IntraClassErr, byName["fc,fw 6%"].IntraClassErr)
	}
	if out := RenderFig15(results); !strings.Contains(out, "intra-disterr") {
		t.Fatalf("rendered fig15 malformed:\n%s", out)
	}
}

func TestFig16SmallWords(t *testing.T) {
	if testing.Short() {
		t.Skip("the 50-class workload needs a 450x450 distance matrix even at Small scale")
	}
	results, err := Fig13("50Words", Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Dataset != "50Words" {
			t.Fatalf("the 50Words grid ran on %s", r.Dataset)
		}
		if r.Cls5Acc < 0 || r.Cls5Acc > 1 || r.Cls10Acc < 0 || r.Cls10Acc > 1 {
			t.Fatalf("%s classification accuracy out of range", r.Algorithm)
		}
	}
	if out := RenderFig16(results); !strings.Contains(out, "cls-5") {
		t.Fatalf("rendered fig16 malformed:\n%s", out)
	}
}

func TestFig17Small(t *testing.T) {
	results, err := Fig17("Trace", Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(AdaptiveAlgorithms()) {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.MatchShare <= 0 || r.MatchShare >= 1 {
			t.Fatalf("%s match share %v out of (0,1)", r.Algorithm, r.MatchShare)
		}
		if r.Timing.MatchTime <= 0 || r.Timing.DPTime <= 0 {
			t.Fatalf("%s stage timings missing", r.Algorithm)
		}
		if r.AvgPairs <= 0 {
			t.Fatalf("%s average pairs %v", r.Algorithm, r.AvgPairs)
		}
	}
	if out := RenderFig17(results); !strings.Contains(out, "match-share") {
		t.Fatalf("rendered fig17 malformed:\n%s", out)
	}
}

func TestFig18SmallSweep(t *testing.T) {
	points, err := Fig18("Gun", Small, 42, []int{8, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2*len(AdaptiveAlgorithms()) {
		t.Fatalf("got %d sweep points", len(points))
	}
	seen := map[int]bool{}
	for _, p := range points {
		seen[p.Bins] = true
		if p.Result.DistErr < 0 {
			t.Fatalf("bins=%d %s negative error", p.Bins, p.Result.Algorithm)
		}
	}
	if !seen[8] || !seen[64] {
		t.Fatalf("sweep missing requested bins: %v", seen)
	}
	if out := RenderFig18(points); !strings.Contains(out, "bins") {
		t.Fatalf("rendered fig18 malformed:\n%s", out)
	}
}

func TestDatasetConfigScales(t *testing.T) {
	full := DatasetConfig("Gun", Full, 1)
	if full.SeriesPerClass != 0 {
		t.Fatalf("full scale overrides per-class count")
	}
	small := DatasetConfig("Gun", Small, 1)
	if small.SeriesPerClass == 0 || small.SeriesPerClass >= 25 {
		t.Fatalf("small scale per-class = %d", small.SeriesPerClass)
	}
	medium := DatasetConfig("50Words", Medium, 1)
	if medium.SeriesPerClass == 0 || medium.SeriesPerClass <= small.SeriesPerClass-3 {
		t.Fatalf("medium scale per-class = %d", medium.SeriesPerClass)
	}
}

func TestNewWorkloadSharesReference(t *testing.T) {
	w, err := NewWorkload("Gun", Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	if w.Data.Name != "Gun" || w.Ref == nil {
		t.Fatalf("workload malformed: %+v", w)
	}
	if len(w.Ref.D) != w.Data.Len() {
		t.Fatalf("reference matrix size %d, data %d", len(w.Ref.D), w.Data.Len())
	}
}
