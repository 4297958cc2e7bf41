package sdtw

import (
	"bytes"
	"testing"
)

func TestSaveLoadFeaturesRoundTrip(t *testing.T) {
	d := GunDataset(DatasetConfig{Seed: 61, SeriesPerClass: 3})
	warm := NewEngine(DefaultOptions())
	if err := warm.Warm(d.Series); err != nil {
		t.Fatal(err)
	}
	want, err := warm.DistanceSeries(d.Series[0], d.Series[1])
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := warm.SaveFeatures(&buf); err != nil {
		t.Fatal(err)
	}

	fresh := NewEngine(DefaultOptions())
	if err := fresh.LoadFeatures(&buf); err != nil {
		t.Fatal(err)
	}
	res, err := fresh.DistanceSeries(d.Series[0], d.Series[1])
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance != want.Distance {
		t.Fatalf("restored cache changed distance: %v vs %v", res.Distance, want.Distance)
	}
	// The restored cache must actually serve extraction: per-call
	// extraction time collapses to (near) zero.
	if res.ExtractTime.Milliseconds() > 10 {
		t.Fatalf("restored cache missed: extract time %v", res.ExtractTime)
	}
	feats, err := fresh.Features(d.Series[0])
	if err != nil {
		t.Fatal(err)
	}
	wantFeats, err := warm.Features(d.Series[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(feats) != len(wantFeats) {
		t.Fatalf("restored %d features, want %d", len(feats), len(wantFeats))
	}
}

func TestLoadFeaturesRejectsGarbage(t *testing.T) {
	eng := NewEngine(DefaultOptions())
	if err := eng.LoadFeatures(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}
