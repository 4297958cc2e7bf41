package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sdtw/internal/experiments"
)

func TestRunRetrieval(t *testing.T) {
	out, entries, err := runRetrieval("Gun", experiments.Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"lb_kim", "lb_keogh", "evaluated", "abandoned", "ac,aw", "fc,fw 10%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("retrieval report missing %q:\n%s", want, out)
		}
	}
	if len(entries) != 4 {
		t.Fatalf("got %d machine-readable entries, want one per config", len(entries))
	}
	for _, e := range entries {
		if e.Dataset != "Gun" || e.Algorithm == "" || e.Candidates == 0 {
			t.Fatalf("malformed entry: %+v", e)
		}
		if e.PrunedSketch+e.PrunedKim+e.PrunedKeogh+e.Evaluated != e.Candidates {
			t.Fatalf("entry stages do not partition candidates: %+v", e)
		}
	}
	if _, _, err := runRetrieval("bogus", experiments.Small, 42); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRunStream(t *testing.T) {
	out, entries, err := runStream("Gun", experiments.Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"best-only", "threshold", "multi-query", "points/sec", "cells/point"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stream report missing %q:\n%s", want, out)
		}
	}
	if len(entries) != 3 {
		t.Fatalf("got %d machine-readable entries, want one per mode", len(entries))
	}
	for _, e := range entries {
		if e.Dataset != "Gun" || e.Mode == "" || e.Points != streamPoints(experiments.Small) {
			t.Fatalf("malformed entry: %+v", e)
		}
		if e.PointsPerSec <= 0 || e.CellsPerPoint < float64(e.QueryLen) {
			t.Fatalf("implausible throughput accounting: %+v", e)
		}
	}
	// The thresholded mode must actually emit matches (the threshold is
	// calibrated off the best distance) and report a finite latency.
	var thresholded *streamEntry
	for i := range entries {
		if entries[i].Mode == "threshold" {
			thresholded = &entries[i]
		}
	}
	if thresholded == nil || thresholded.Matches == 0 || thresholded.AvgLatencyPoints < 0 {
		t.Fatalf("thresholded mode emitted nothing measurable: %+v", thresholded)
	}
	if _, _, err := runStream("bogus", experiments.Small, 42); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

// TestRunStreamFullScale runs the long streaming experiment (200k points
// per dataset); like the retrieval reproduction suite it is skipped
// under -short.
func TestRunStreamFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale stream experiment skipped in -short mode")
	}
	for _, name := range []string{"Gun", "Trace"} {
		_, entries, err := runStream(name, experiments.Full, 42)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Points != streamPoints(experiments.Full) || e.PointsPerSec <= 0 {
				t.Fatalf("%s: malformed full-scale entry: %+v", name, e)
			}
		}
	}
}

func TestRunKernel(t *testing.T) {
	out, entries, err := runKernel("Gun", experiments.Small, 42, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dp", "keogh", "spring", "engine", "search", "speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("kernel report missing %q:\n%s", want, out)
		}
	}
	components := map[string]bool{}
	for _, e := range entries {
		if e.Dataset != "Gun" || e.Unit == "" {
			t.Fatalf("malformed entry: %+v", e)
		}
		if e.Generic <= 0 || e.Specialized <= 0 {
			t.Fatalf("non-positive throughput: %+v", e)
		}
		if got := e.Specialized / e.Generic; got != e.Speedup {
			t.Fatalf("speedup %v inconsistent with throughputs: %+v", got, e)
		}
		components[e.Component] = true
	}
	for _, want := range []string{"dp", "keogh", "spring", "engine", "search"} {
		if !components[want] {
			t.Fatalf("kernel entries missing component %q: %+v", want, entries)
		}
	}
	if _, _, err := runKernel("bogus", experiments.Small, 42, time.Millisecond); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestCheckKernelFloor(t *testing.T) {
	entries := []kernelEntry{
		{Component: "dp", Unit: "cells/sec", Dataset: "Gun", Speedup: 2.0},
		{Component: "keogh", Unit: "elems/sec", Dataset: "Gun", Speedup: 0.9},    // thin margin: not gated
		{Component: "search", Unit: "queries/sec", Dataset: "Gun", Speedup: 0.5}, // composite: not gated
	}
	if err := checkKernelFloor(entries, 1.0); err != nil {
		t.Fatalf("only cells/sec kernel components may be gated: %v", err)
	}
	entries[0].Speedup = 0.9
	if err := checkKernelFloor(entries, 1.0); err == nil {
		t.Fatal("a pure-kernel ratio below the floor must fail")
	}
	if err := checkKernelFloor(entries, 0); err != nil {
		t.Fatalf("floor 0 must disable the gate: %v", err)
	}
}

func TestWriteKernelJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_kernel.json")
	entries := []kernelEntry{{Dataset: "Gun", Component: "dp", Unit: "cells/sec",
		Generic: 1e8, Specialized: 3e8, Speedup: 3}}
	if err := writeKernelJSON(path, entries); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []kernelEntry
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != entries[0] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestWriteStreamJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_stream.json")
	entries := []streamEntry{{Dataset: "Gun", Mode: "threshold", Queries: 1, QueryLen: 150,
		Points: 10000, Matches: 3, WallMS: 12.5, PointsPerSec: 8e5, CellsPerPoint: 150, AvgLatencyPoints: 40}}
	if err := writeStreamJSON(path, entries); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []streamEntry
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != entries[0] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestWriteRetrievalJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_retrieval.json")
	entries := []retrievalEntry{{Dataset: "Trace", Algorithm: "ac,aw", Candidates: 10, Evaluated: 4, AbandonedDTW: 2}}
	if err := writeRetrievalJSON(path, entries); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []retrievalEntry
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != entries[0] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestParseScale(t *testing.T) {
	tests := []struct {
		in   string
		want experiments.Scale
	}{
		{"full", experiments.Full},
		{"FULL", experiments.Full},
		{"medium", experiments.Medium},
		{"small", experiments.Small},
	}
	for _, tc := range tests {
		got, err := parseScale(tc.in)
		if err != nil {
			t.Fatalf("parseScale(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Fatalf("parseScale(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if _, err := parseScale("tiny"); err == nil {
		t.Fatal("unknown scale accepted")
	}
}
