package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdtw"
)

func TestOptionsFor(t *testing.T) {
	tests := []struct {
		in   string
		want sdtw.Strategy
	}{
		{"dtw", sdtw.FullGrid},
		{"full", sdtw.FullGrid},
		{"fc,fw", sdtw.FixedCoreFixedWidth},
		{"sakoe", sdtw.FixedCoreFixedWidth},
		{"FC,AW", sdtw.FixedCoreAdaptiveWidth},
		{"ac,fw", sdtw.AdaptiveCoreFixedWidth},
		{"ac,aw", sdtw.AdaptiveCoreAdaptiveWidth},
		{"ac2,aw", sdtw.AdaptiveCoreAdaptiveWidthAvg},
	}
	for _, tc := range tests {
		opts, err := optionsFor(tc.in, 0.1, false)
		if err != nil {
			t.Fatalf("optionsFor(%q): %v", tc.in, err)
		}
		if opts.Strategy != tc.want {
			t.Fatalf("optionsFor(%q) = %v, want %v", tc.in, opts.Strategy, tc.want)
		}
	}
	if _, err := optionsFor("nope", 0.1, false); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestCheckIndex(t *testing.T) {
	d := sdtw.GunDataset(sdtw.DatasetConfig{Seed: 1, SeriesPerClass: 1})
	if err := checkIndex(d, 0); err != nil {
		t.Fatal(err)
	}
	if err := checkIndex(d, -1); err == nil {
		t.Fatal("negative index accepted")
	}
	if err := checkIndex(d, d.Len()); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestRunPairAndQueryEndToEnd(t *testing.T) {
	d := sdtw.GunDataset(sdtw.DatasetConfig{Seed: 1, SeriesPerClass: 2})
	opts, err := optionsFor("ac,aw", 0.1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := runPair(d, 0, 1, opts); err != nil {
		t.Fatal(err)
	}
	if err := runQuery(d, 0, 2, opts); err != nil {
		t.Fatal(err)
	}
	if err := printFeatures(d, 0, opts); err != nil {
		t.Fatal(err)
	}
	if err := runPair(d, 0, 99, opts); err == nil {
		t.Fatal("bad index accepted")
	}
}

// TestRunMonitorEndToEnd drives the monitor subcommand over a stream
// with a planted occurrence of the query, from both a stream file and
// stdin, in thresholded and best-only modes.
func TestRunMonitorEndToEnd(t *testing.T) {
	dir := t.TempDir()
	queryFile := filepath.Join(dir, "queries.txt")
	// One query row in UCR format: label first, then values.
	if err := os.WriteFile(queryFile, []byte("0,0,2,0\n1,5,5,5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Plant [0 2 0] at positions 3..5 of a hostile stream.
	streamFile := filepath.Join(dir, "stream.txt")
	if err := os.WriteFile(streamFile, []byte("9 9 9 0 2 0 9 9 9 9\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	err := runMonitor([]string{
		"-queries", queryFile, "-rows", "0", "-stream", streamFile,
		"-threshold", "0.5", "-batch", "3",
	}, nil, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"[3,5] distance=0", "stream done: 10 points, 1 matches"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("thresholded output missing %q:\n%s", want, out.String())
		}
	}

	// Best-only mode over stdin, monitoring both rows at once.
	out.Reset()
	stdin := strings.NewReader("9 9 9 0 2 0 9 9 9 9")
	err = runMonitor([]string{"-queries", queryFile, "-rows", "0,1", "-workers", "2"}, stdin, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "best matches at end-of-stream:") ||
		!strings.Contains(out.String(), "[3,5] distance=0") {
		t.Fatalf("best-only output missing the planted match:\n%s", out.String())
	}

	// Validation failures surface as errors, not panics.
	for _, args := range [][]string{
		{},
		{"-queries", queryFile, "-rows", "99", "-stream", streamFile},
		{"-queries", queryFile, "-rows", "zero", "-stream", streamFile},
		{"-queries", queryFile, "-stream", filepath.Join(dir, "missing.txt")},
		{"-queries", queryFile, "-batch", "0", "-stream", streamFile},
	} {
		if err := runMonitor(args, strings.NewReader(""), &bytes.Buffer{}); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}

	// Bad stream values are reported with the offending token.
	if err := runMonitor([]string{"-queries", queryFile, "-stream", "-"},
		strings.NewReader("1 2 banana"), &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "banana") {
		t.Fatalf("bad stream value: got %v", err)
	}
}

func TestUCRRoundTripThroughCommandHelpers(t *testing.T) {
	d := sdtw.GunDataset(sdtw.DatasetConfig{Seed: 2, SeriesPerClass: 1})
	var buf bytes.Buffer
	if err := sdtw.WriteUCR(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := sdtw.ReadUCR(&buf, "tmp")
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() {
		t.Fatalf("round trip lost series")
	}
}
