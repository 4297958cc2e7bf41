package datasets

import (
	"math"
	"testing"

	"sdtw/internal/sift"
)

func TestGunMatchesTable1(t *testing.T) {
	d := Gun(Config{Seed: 1})
	if d.Length != 150 || d.Len() != 50 || d.NumClasses != 2 {
		t.Fatalf("Gun shape = (%d,%d,%d), want (150,50,2)", d.Length, d.Len(), d.NumClasses)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTraceMatchesTable1(t *testing.T) {
	d := Trace(Config{Seed: 1})
	if d.Length != 275 || d.Len() != 100 || d.NumClasses != 4 {
		t.Fatalf("Trace shape = (%d,%d,%d), want (275,100,4)", d.Length, d.Len(), d.NumClasses)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFiftyWordsMatchesTable1(t *testing.T) {
	d := FiftyWords(Config{Seed: 1})
	if d.Length != 270 || d.Len() != 450 || d.NumClasses != 50 {
		t.Fatalf("50Words shape = (%d,%d,%d), want (270,450,50)", d.Length, d.Len(), d.NumClasses)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, gen := range []func(Config) *Dataset{Gun, Trace, FiftyWords} {
		a := gen(Config{Seed: 42, SeriesPerClass: 2})
		b := gen(Config{Seed: 42, SeriesPerClass: 2})
		if a.Len() != b.Len() {
			t.Fatal("sizes differ for equal seeds")
		}
		for i := range a.Series {
			for j := range a.Series[i].Values {
				if a.Series[i].Values[j] != b.Series[i].Values[j] {
					t.Fatalf("%s: seed 42 not deterministic at series %d sample %d", a.Name, i, j)
				}
			}
		}
		c := gen(Config{Seed: 43, SeriesPerClass: 2})
		same := true
		for j := range a.Series[0].Values {
			if a.Series[0].Values[j] != c.Series[0].Values[j] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%s: different seeds produced identical data", a.Name)
		}
	}
}

func TestConfigOverrides(t *testing.T) {
	d := Gun(Config{Seed: 1, SeriesPerClass: 3, Length: 99})
	if d.Length != 99 || d.Len() != 6 {
		t.Fatalf("overridden Gun shape = (%d,%d), want (99,6)", d.Length, d.Len())
	}
}

func TestClassBalance(t *testing.T) {
	d := Trace(Config{Seed: 5})
	counts := make(map[int]int)
	for _, l := range d.Labels() {
		counts[l]++
	}
	if len(counts) != 4 {
		t.Fatalf("Trace has %d classes, want 4", len(counts))
	}
	for label, n := range counts {
		if n != 25 {
			t.Fatalf("class %d has %d series, want 25", label, n)
		}
	}
}

func TestUniqueIDs(t *testing.T) {
	for _, d := range All(Config{Seed: 7, SeriesPerClass: 3}) {
		seen := make(map[string]bool)
		for _, s := range d.Series {
			if s.ID == "" {
				t.Fatalf("%s has an unkeyed series", d.Name)
			}
			if seen[s.ID] {
				t.Fatalf("%s has duplicate ID %q", d.Name, s.ID)
			}
			seen[s.ID] = true
		}
	}
}

func TestValuesAndLabelsAccessors(t *testing.T) {
	d := Gun(Config{Seed: 1, SeriesPerClass: 2})
	if len(d.Values()) != 4 || len(d.Labels()) != 4 {
		t.Fatal("accessor lengths wrong")
	}
	if d.Labels()[0] != 0 || d.Labels()[3] != 1 {
		t.Fatalf("labels = %v", d.Labels())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := Gun(Config{Seed: 1, SeriesPerClass: 2})
	d.Series[0].Values[10] = math.NaN()
	if err := d.Validate(); err == nil {
		t.Fatal("NaN not caught")
	}
	d = Gun(Config{Seed: 1, SeriesPerClass: 2})
	d.Series[1].Label = 99
	if err := d.Validate(); err == nil {
		t.Fatal("out-of-range label not caught")
	}
	d = Gun(Config{Seed: 1, SeriesPerClass: 2})
	d.Series[2].Values = d.Series[2].Values[:10]
	if err := d.Validate(); err == nil {
		t.Fatal("length mismatch not caught")
	}
	empty := &Dataset{Name: "empty"}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty data set not caught")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"Gun", "gun", "Trace", "trace", "50Words", "50words", "words"} {
		d, err := ByName(name, Config{Seed: 1, SeriesPerClass: 1})
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if d.Len() == 0 {
			t.Fatalf("ByName(%q) empty", name)
		}
	}
	if _, err := ByName("nope", Config{}); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestAllUsesDistinctSeeds(t *testing.T) {
	ds := All(Config{Seed: 9, SeriesPerClass: 1})
	if len(ds) != 3 {
		t.Fatalf("All returned %d data sets", len(ds))
	}
	names := map[string]bool{}
	for _, d := range ds {
		names[d.Name] = true
	}
	if !names["Gun"] || !names["Trace"] || !names["50Words"] {
		t.Fatalf("All names = %v", names)
	}
}

// TestTable2ScaleProfile checks the reproduction target derived from the
// paper's Table 2: the Gun workload is proportionally richest in
// large-scale (rough) features and 50Words is proportionally poorest.
func TestTable2ScaleProfile(t *testing.T) {
	roughShare := func(d *Dataset) float64 {
		rough, total := 0, 0
		for _, s := range d.Series {
			feats, err := sift.Extract(s.Values, sift.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			c := sift.CountByClass(feats)
			rough += c[sift.Rough]
			total += len(feats)
		}
		if total == 0 {
			t.Fatalf("%s produced no features", d.Name)
		}
		return float64(rough) / float64(total)
	}
	gun := roughShare(Gun(Config{Seed: 3, SeriesPerClass: 5}))
	words := roughShare(FiftyWords(Config{Seed: 3, SeriesPerClass: 1}))
	if gun <= words {
		t.Fatalf("rough-share ordering violated: Gun %.3f <= 50Words %.3f", gun, words)
	}
}

func TestIntraClassSimilarity(t *testing.T) {
	// Same-class series must be closer (on average, in Euclidean terms)
	// than cross-class series, otherwise classification experiments are
	// meaningless.
	d := Trace(Config{Seed: 11, SeriesPerClass: 4})
	dist := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			diff := a[i] - b[i]
			s += diff * diff
		}
		return s
	}
	intra, cross := 0.0, 0.0
	ni, nc := 0, 0
	for i := range d.Series {
		for j := i + 1; j < len(d.Series); j++ {
			dd := dist(d.Series[i].Values, d.Series[j].Values)
			if d.Series[i].Label == d.Series[j].Label {
				intra += dd
				ni++
			} else {
				cross += dd
				nc++
			}
		}
	}
	if intra/float64(ni) >= cross/float64(nc) {
		t.Fatalf("intra-class distance %.3f not below cross-class %.3f", intra/float64(ni), cross/float64(nc))
	}
}
