package eval

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTopKOverlap(t *testing.T) {
	tests := []struct {
		name     string
		ref, est []int
		k        int
		want     float64
	}{
		{"identical", []int{1, 2, 3}, []int{1, 2, 3}, 3, 1},
		{"reordered", []int{1, 2, 3}, []int{3, 1, 2}, 3, 1},
		{"disjoint", []int{1, 2, 3}, []int{4, 5, 6}, 3, 0},
		{"half", []int{1, 2, 3, 4}, []int{1, 2, 8, 9}, 4, 0.5},
		{"k beyond ranking", []int{1, 2}, []int{1, 2}, 10, 1},
		{"k zero", []int{1}, []int{1}, 0, 0},
		{"est shorter", []int{1, 2, 3}, []int{1}, 3, 1.0 / 3},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := TopKOverlap(tc.ref, tc.est, tc.k); math.Abs(got-tc.want) > 1e-12 {
				t.Fatalf("TopKOverlap = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestDistanceError(t *testing.T) {
	if e := DistanceError(10, 12); math.Abs(e-0.2) > 1e-12 {
		t.Errorf("DistanceError(10,12) = %v, want 0.2", e)
	}
	if e := DistanceError(10, 10); e != 0 {
		t.Errorf("exact estimate error = %v", e)
	}
	if e := DistanceError(0, 0); e != 0 {
		t.Errorf("zero/zero error = %v, want 0", e)
	}
	if e := DistanceError(0, 1); !math.IsInf(e, 1) {
		t.Errorf("zero-reference error = %v, want +Inf", e)
	}
}

func TestJaccardLabels(t *testing.T) {
	set := func(labels ...int) map[int]bool {
		m := map[int]bool{}
		for _, l := range labels {
			m[l] = true
		}
		return m
	}
	tests := []struct {
		name string
		a, b map[int]bool
		want float64
	}{
		{"equal", set(1, 2), set(1, 2), 1},
		{"disjoint", set(1), set(2), 0},
		{"partial", set(1, 2), set(2, 3), 1.0 / 3},
		{"both empty", set(), set(), 1},
		{"one empty", set(1), set(), 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := JaccardLabels(tc.a, tc.b); math.Abs(got-tc.want) > 1e-12 {
				t.Fatalf("Jaccard = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestTimeGain(t *testing.T) {
	if g := TimeGain(10, 2); math.Abs(g-0.8) > 1e-12 {
		t.Errorf("TimeGain(10,2) = %v", g)
	}
	if g := TimeGain(10, 15); math.Abs(g+0.5) > 1e-12 {
		t.Errorf("TimeGain(10,15) = %v, want -0.5", g)
	}
	if g := TimeGain(0, 5); g != 0 {
		t.Errorf("TimeGain(0,·) = %v, want 0", g)
	}
}

func TestMeanIgnoresNonFinite(t *testing.T) {
	if m := Mean([]float64{1, 2, math.Inf(1), math.NaN(), 3}); m != 2 {
		t.Fatalf("Mean = %v, want 2", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("Mean(nil) = %v", m)
	}
	if m := Mean([]float64{math.NaN()}); m != 0 {
		t.Fatalf("Mean(NaN) = %v", m)
	}
}

func TestRanking(t *testing.T) {
	dists := []float64{3, math.NaN(), 1, 2}
	r := Ranking(dists)
	want := []int{2, 3, 0}
	if len(r) != len(want) {
		t.Fatalf("Ranking = %v, want %v", r, want)
	}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("Ranking = %v, want %v", r, want)
		}
	}
}

func TestRankingTieBreaksByIndex(t *testing.T) {
	r := Ranking([]float64{5, 5, 5})
	for i, id := range []int{0, 1, 2} {
		if r[i] != id {
			t.Fatalf("tie ranking = %v", r)
		}
	}
}

func TestRankingSortedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		for i := range raw {
			if math.IsNaN(raw[i]) {
				raw[i] = 0
			}
		}
		r := Ranking(raw)
		for i := 1; i < len(r); i++ {
			if raw[r[i-1]] > raw[r[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKNNLabels(t *testing.T) {
	labels := []int{0, 0, 1, 1, 2}
	ranked := []int{0, 1, 2, 3, 4}
	// k=2: two votes for class 0.
	got := KNNLabels(ranked, labels, 2)
	if len(got) != 1 || !got[0] {
		t.Fatalf("kNN(2) = %v, want {0}", got)
	}
	// k=4: tie between classes 0 and 1 — both attached (§4.2).
	got = KNNLabels(ranked, labels, 4)
	if len(got) != 2 || !got[0] || !got[1] {
		t.Fatalf("kNN(4) = %v, want {0,1}", got)
	}
	// k beyond ranking length clamps.
	got = KNNLabels(ranked, labels, 50)
	if len(got) != 2 {
		t.Fatalf("kNN(50) = %v", got)
	}
}
