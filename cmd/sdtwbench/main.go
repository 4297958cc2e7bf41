// Command sdtwbench regenerates the tables and figures of the sDTW paper
// (Candan et al., VLDB 2012) on the synthetic reproduction workloads.
//
// Usage:
//
//	sdtwbench -exp all                 # every table and figure, full scale
//	sdtwbench -exp fig13 -scale small  # one experiment, reduced workload
//	sdtwbench -exp fig18 -dataset Gun  # restrict figures to one data set
//
// Experiments: table1, table2, fig13, fig14, fig15, fig16, fig17, fig18,
// noise, invariance, all. Scales: full (paper sizes), medium, small.
//
// Performance is not measured here: throughput, latency and per-layer
// cost live on the benchmark ledger (bash benchmark/run.sh, see
// benchmark/README.md).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"sdtw/internal/experiments"
)

// env is what every experiment runs under: the workload scale and seed
// from the command line, and the Fig 13 evaluation grids already computed
// in this process (Fig 14, 15 and 16 derive from the same matrices).
type env struct {
	scale experiments.Scale
	seed  int64
	grids map[string][]experiments.AlgoResult
}

// standardGrid evaluates the standard algorithm grid on one data set,
// once per process.
func (e *env) standardGrid(dataset string) ([]experiments.AlgoResult, error) {
	if res, ok := e.grids[dataset]; ok {
		return res, nil
	}
	res, err := experiments.Fig13(dataset, e.scale, e.seed)
	if err != nil {
		return nil, err
	}
	e.grids[dataset] = res
	return res, nil
}

// experiment is one row of the table that drives dispatch, -exp all, the
// -exp help text and the unknown-name error. A perDataset experiment
// runs once per selected data set; the others ignore the dataset argument.
type experiment struct {
	name, title string
	perDataset  bool
	run         func(e *env, dataset string) (string, error)
}

// rendered pairs a compute call's (rows, error) result with its renderer,
// adapting internal/experiments to the table's run signature.
func rendered[T any](show func(T) string) func(T, error) (string, error) {
	return func(rows T, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return show(rows), nil
	}
}

var experimentTable = []experiment{
	{"table1", "Table 1: data set overview", false, func(e *env, _ string) (string, error) {
		return rendered(experiments.RenderTable1)(experiments.Table1(e.scale, e.seed))
	}},
	{"table2", "Table 2: salient points per scale", false, func(e *env, _ string) (string, error) {
		return rendered(experiments.RenderTable2)(experiments.Table2(e.scale, e.seed))
	}},
	{"fig13", "Fig 13: retrieval accuracy", true, func(e *env, d string) (string, error) {
		return rendered(experiments.RenderFig13)(e.standardGrid(d))
	}},
	{"fig14", "Fig 14: distance error", true, func(e *env, d string) (string, error) {
		return rendered(experiments.RenderFig14)(e.standardGrid(d))
	}},
	{"fig15", "Fig 15: intra-class distance errors (Trace)", false, func(e *env, _ string) (string, error) {
		return rendered(experiments.RenderFig15)(e.standardGrid("Trace"))
	}},
	{"fig16", "Fig 16: classification accuracy (50Words)", false, func(e *env, _ string) (string, error) {
		return rendered(experiments.RenderFig16)(e.standardGrid("50Words"))
	}},
	{"fig17", "Fig 17: matching vs DP time breakdown", true, func(e *env, d string) (string, error) {
		return rendered(experiments.RenderFig17)(experiments.Fig17(d, e.scale, e.seed))
	}},
	{"fig18", "Fig 18: descriptor length sweep", true, func(e *env, d string) (string, error) {
		return rendered(experiments.RenderFig18)(experiments.Fig18(d, e.scale, e.seed, nil))
	}},
	{"noise", "Noise robustness of salient features (§3.1.2)", false, func(e *env, _ string) (string, error) {
		return rendered(experiments.RenderNoise)(experiments.NoiseRobustness(e.seed, nil))
	}},
	{"invariance", "Amplitude-invariance ablation (§3.1.2)", false, func(e *env, _ string) (string, error) {
		return rendered(experiments.RenderInvariance)(experiments.Invariance(e.seed))
	}},
}

// retired maps the performance experiments this command used to carry to
// the benchmark workloads that replaced them.
var retired = map[string][]string{
	"retrieval": {"knn-match", "knn-dp", "knn-bounds"},
	"stream":    {"hub-dormant", "hub-live"},
	"kernel":    {"knn-dp", "hub-live"},
	"serve":     {"serve-mixed"},
	"scale":     {"store-restart"},
}

// experimentNames lists the table's names followed by "all", the form
// the help text and the unknown-name error print.
func experimentNames(table []experiment) string {
	names := make([]string, 0, len(table)+1)
	for _, x := range table {
		names = append(names, x.name)
	}
	return strings.Join(append(names, "all"), ", ")
}

// selectExperiments resolves an -exp value against the table: "all" is
// the whole table, a name its one row.
func selectExperiments(table []experiment, exp string) ([]experiment, error) {
	if exp == "all" {
		return table, nil
	}
	for _, x := range table {
		if x.name == exp {
			return []experiment{x}, nil
		}
	}
	if w, ok := retired[exp]; ok {
		also := ""
		if len(w) > 1 {
			also = " (or " + strings.Join(w[1:], ", ") + ")"
		}
		return nil, fmt.Errorf("experiment %q was retired: run `bash benchmark/run.sh --workload %s`%s, see benchmark/README.md", exp, w[0], also)
	}
	return nil, fmt.Errorf("unknown experiment %q (want %s)", exp, experimentNames(table))
}

// runExperiments runs the selected rows in table order, per-dataset rows
// once per data set, printing each under its title with its wall time.
func runExperiments(out io.Writer, selected []experiment, e *env, datasets []string) error {
	for _, x := range selected {
		on := []string{""}
		if x.perDataset {
			on = datasets
		}
		for _, d := range on {
			title := x.title
			if d != "" {
				title += " on " + d
			}
			fmt.Fprintf(out, "=== %s ===\n", title)
			start := time.Now()
			text, err := x.run(e, d)
			if err != nil {
				return fmt.Errorf("%s: %w", title, err)
			}
			fmt.Fprint(out, text)
			fmt.Fprintf(out, "(%s in %v)\n\n", title, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sdtwbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "all", "experiment to run: "+experimentNames(experimentTable))
		scale   = fs.String("scale", "full", "workload scale: full, medium, small")
		dataset = fs.String("dataset", "", "restrict per-dataset figures to one data set (Gun, Trace, 50Words)")
		seed    = fs.Int64("seed", 42, "workload generator seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := parseScale(*scale)
	if err != nil {
		return err
	}
	selected, err := selectExperiments(experimentTable, *exp)
	if err != nil {
		return err
	}
	datasets := []string{"Gun", "Trace", "50Words"}
	if *dataset != "" {
		datasets = []string{*dataset}
	}
	return runExperiments(stdout, selected, &env{scale: sc, seed: *seed, grids: map[string][]experiments.AlgoResult{}}, datasets)
}

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintln(os.Stderr, "sdtwbench:", err)
	os.Exit(1)
}

func parseScale(s string) (experiments.Scale, error) {
	switch strings.ToLower(s) {
	case "full":
		return experiments.Full, nil
	case "medium":
		return experiments.Medium, nil
	case "small":
		return experiments.Small, nil
	default:
		return 0, fmt.Errorf("unknown scale %q (want full, medium or small)", s)
	}
}
