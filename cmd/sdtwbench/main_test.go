package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"sdtw/internal/experiments"
)

// splitNames parses a "a, b, c" list as the help text and the package
// comment print it.
func splitNames(list string) []string {
	var names []string
	for _, n := range strings.Split(list, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// tableNames is what both published lists must equal: every table name,
// then "all".
func tableNames() []string { return splitNames(experimentNames(experimentTable)) }

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	seen := map[string]int{}
	for _, n := range got {
		seen[n]++
	}
	for _, n := range want {
		if seen[n] != 1 {
			t.Errorf("%s lists %q %d times, want once (got %v)", what, n, seen[n], got)
		}
		delete(seen, n)
	}
	for n := range seen {
		t.Errorf("%s lists %q, which is not in the experiment table", what, n)
	}
}

// TestHelpListsTheTable drives -h: exactly four flags, and the -exp help
// names every table row plus "all" and nothing else.
func TestHelpListsTheTable(t *testing.T) {
	var usage bytes.Buffer
	if err := run([]string{"-h"}, io.Discard, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
	var flags []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\w+)`).FindAllStringSubmatch(usage.String(), -1) {
		flags = append(flags, m[1])
	}
	sameSet(t, "-h", flags, []string{"exp", "scale", "dataset", "seed"})

	m := regexp.MustCompile(`experiment to run: ([^\n(]*)`).FindStringSubmatch(usage.String())
	if m == nil {
		t.Fatalf("-exp help carries no experiment list:\n%s", usage.String())
	}
	sameSet(t, "-exp help", splitNames(m[1]), tableNames())
}

// TestPackageCommentListsTheTable keeps the doc comment's "Experiments:"
// sentence in step with the table.
func TestPackageCommentListsTheTable(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?s)// Experiments: (.*?)\. Scales:`).FindSubmatch(src)
	if m == nil {
		t.Fatal("package comment has no \"Experiments: …. Scales:\" sentence")
	}
	sameSet(t, "package comment", splitNames(strings.ReplaceAll(string(m[1]), "\n//", " ")), tableNames())
}

// TestAllRunsEachExperimentOnce runs "all" over a counting copy of the
// table: every row once, per-dataset rows once per data set, in order.
func TestAllRunsEachExperimentOnce(t *testing.T) {
	var calls []string
	table := make([]experiment, len(experimentTable))
	for i, x := range experimentTable {
		x := x
		table[i] = experiment{x.name, x.title, x.perDataset, func(_ *env, d string) (string, error) {
			calls = append(calls, x.name+"/"+d)
			return "", nil
		}}
	}
	selected, err := selectExperiments(table, "all")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runExperiments(&out, selected, &env{}, []string{"Gun", "Trace"}); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, x := range experimentTable {
		if x.perDataset {
			want = append(want, x.name+"/Gun", x.name+"/Trace")
		} else {
			want = append(want, x.name+"/")
		}
		if !strings.Contains(out.String(), "=== "+x.title) {
			t.Errorf("output has no section for %s (%q)", x.name, x.title)
		}
	}
	if strings.Join(calls, " ") != strings.Join(want, " ") {
		t.Fatalf("all ran\n %v\nwant\n %v", calls, want)
	}

	one, err := selectExperiments(table, "fig17")
	if err != nil || len(one) != 1 || one[0].name != "fig17" {
		t.Fatalf("selectExperiments(fig17) = %v, %v", one, err)
	}
}

// TestRetiredAndUnknownExperiments pins the two refusals: a retired
// performance experiment names the benchmark workload that replaced it,
// any other name gets the table's list.
func TestRetiredAndUnknownExperiments(t *testing.T) {
	workloads := map[string]string{
		"serve":     "serve-mixed",
		"stream":    "hub-dormant",
		"kernel":    "knn-dp",
		"retrieval": "knn-match",
		"scale":     "store-restart",
	}
	for name, workload := range workloads {
		err := run([]string{"-exp", name, "-scale", "small"}, io.Discard, io.Discard)
		if err == nil {
			t.Fatalf("-exp %s accepted", name)
		}
		if want := "bash benchmark/run.sh --workload " + workload; !strings.Contains(err.Error(), want) {
			t.Errorf("-exp %s: error %q does not name %q", name, err, want)
		}
	}
	// The three deleted non-paper experiments have no replacement to name.
	for _, name := range []string{"bogus", "baseline", "extras", "bands"} {
		err := run([]string{"-exp", name}, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") ||
			!strings.Contains(err.Error(), experimentNames(experimentTable)) {
			t.Fatalf("-exp %s: error %v does not list the experiments", name, err)
		}
	}
	if err := run([]string{"-exp", "table1", "-scale", "tiny"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

// TestRunOneExperimentEndToEnd drives a real row through run.
func TestRunOneExperimentEndToEnd(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "fig14", "-scale", "small", "-dataset", "Gun"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "=== Fig 14: distance error on Gun ===") {
		t.Fatalf("missing section header:\n%s", out.String())
	}
	if err := run([]string{"-exp", "fig13", "-scale", "small", "-dataset", "bogus"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

// TestFig15And16ReadTheStandardGrid: the two single-data-set figures are
// columns of the grid fig13/fig14 evaluate, so -exp all computes the Trace
// and 50Words grids once each.
func TestFig15And16ReadTheStandardGrid(t *testing.T) {
	e := &env{grids: map[string][]experiments.AlgoResult{
		"Trace":   {{Algorithm: "cached-trace", Dataset: "Trace"}},
		"50Words": {{Algorithm: "cached-words", Dataset: "50Words"}},
	}}
	for name, want := range map[string]string{"fig15": "cached-trace", "fig16": "cached-words"} {
		row, err := selectExperiments(experimentTable, name)
		if err != nil {
			t.Fatal(err)
		}
		text, err := row[0].run(e, "")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text, want) {
			t.Errorf("%s did not render the cached grid:\n%s", name, text)
		}
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
