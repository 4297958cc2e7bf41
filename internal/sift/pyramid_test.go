package sift

import (
	"testing"

	"sdtw/internal/scalespace"
)

// TestExtractFromPyramidMatchesExtract verifies the shared-pyramid entry
// point produces the same features as the one-shot Extract.
func TestExtractFromPyramidMatchesExtract(t *testing.T) {
	v := bumpSeries(300, []int{70, 160, 230}, 7, 1)
	cfg := DefaultConfig()
	direct, err := Extract(v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pyr, err := scalespace.Build(v, cfg.ScaleSpace)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := ExtractFromPyramid(v, pyr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(shared) != len(direct) {
		t.Fatalf("shared pyramid yielded %d features, direct %d", len(shared), len(direct))
	}
	for i := range direct {
		if direct[i].X != shared[i].X || direct[i].Sigma != shared[i].Sigma {
			t.Fatalf("feature %d differs: %+v vs %+v", i, direct[i], shared[i])
		}
		if d := descriptorDistance(direct[i].Descriptor, shared[i].Descriptor); d != 0 {
			t.Fatalf("feature %d descriptor differs by %v", i, d)
		}
	}
}

// TestExtractFromPyramidInvalidConfig propagates configuration errors.
func TestExtractFromPyramidInvalidConfig(t *testing.T) {
	v := bumpSeries(100, []int{50}, 5, 1)
	pyr, err := scalespace.Build(v, scalespace.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DescriptorBins = 3 // odd: invalid
	if _, err := ExtractFromPyramid(v, pyr, cfg); err == nil {
		t.Fatal("invalid descriptor config accepted")
	}
}
