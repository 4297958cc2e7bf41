// Command benchmark is the repository's performance ledger: seven named
// workloads, six end-to-end metrics every workload reports, and a traced
// attribution run that fills the per-layer rows. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// workload is one named set of inputs and operations.
type workload struct {
	name string
	why  string
	run  func(cfg runConfig) (*runResult, error)
}

// workloads is the fixed list; BENCHMARK.json carries the same names
// and reasons.
var workloads = []workload{
	{"knn-match", "1000x270 50Words-shaped series under (ac,aw): bounds prune little, so feature matching is most of a query and DP the rest",
		func(c runConfig) (*runResult, error) { return runKNN("knn-match", c) }},
	{"knn-dp", "352x1024 Trace-shaped series under (ac,aw): long series make the banded DP kernel most of a query, matching a tenth",
		func(c runConfig) (*runResult, error) { return runKNN("knn-dp", c) }},
	{"knn-bounds", "20000x128 windowed index, radius 3: over 90% pruned before DP, so sketch/Kim/Keogh and the cascade's own ordering dominate; no features at all",
		func(c runConfig) (*runResult, error) { return runKNN("knn-bounds", c) }},
	{"serve-mixed", "4-shard store-backed index behind the HTTP handler, 80% search 10% add 10% remove: parallel fan-out, COW writes and store appends beside reads",
		runServe},
	{"hub-dormant", "1000 streams x 100 queries of length 16, 13/16 dead points: the time-domain prefilter does the work, SPRING columns are the minority",
		func(c runConfig) (*runResult, error) { return runHub("hub-dormant", c) }},
	{"hub-live", "256 streams x 32 queries of length 128, in-band signal only: the prefilter is bypassed and SPRING column advances do the work",
		func(c runConfig) (*runResult, error) { return runHub("hub-live", c) }},
	{"store-restart", "the operator's restart and durable-write path over the knn-bounds collection: open, first-touch searches, fsynced adds, removes, compaction",
		runStore},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// benchmarkFile is BENCHMARK.json's schema.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadFile `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type workloadFile struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const runSeconds = 10

// benchmarkJSON renders the ledger as BENCHMARK.json, so the file at
// the repository root is generated, never hand-edited.
func benchmarkJSON() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadFile{w.name, w.why})
	}
	return f
}

// driverLine is the last line of standard output, as the driver reads
// it.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// savedRun is one line of an -out file, the input of -compare.
type savedRun struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Trace    bool                   `json:"trace"`
	Inputs   string                 `json:"inputs_sha256"`
	Commit   string                 `json:"commit"`
	Correct  bool                   `json:"correct"`
	Metrics  map[string]metricValue `json:"metrics"`
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "unknown"
}

// report prints every metric of the run by name with its unit and, for
// percentiles, the sample count behind it.
func report(res *runResult, defs []metricDef, values map[string]metricValue) {
	mode := "untraced (end-to-end)"
	if res.Trace {
		mode = "traced (per-layer)"
	}
	fmt.Printf("== %s  seed=%d  %s\n", res.Workload, res.Seed, mode)
	fmt.Printf("   nproc=%d GOMAXPROCS=%d clients=%d %s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), clients(), runtime.Version(), commit())
	fmt.Printf("   inputs_sha256=%s\n", res.Inputs)
	for _, d := range defs {
		v := values[d.Name]
		if res.Trace && v.Value == 0 {
			continue // the layer is bypassed on this workload
		}
		line := fmt.Sprintf("   %-34s %16.6g %-6s", d.Name, v.Value, v.Unit)
		if n, ok := res.Metrics.samples[d.Name]; ok {
			line += fmt.Sprintf(" (n=%d)", n)
		}
		fmt.Println(line)
	}
	if len(res.Spans) > 0 {
		fmt.Println("   spans: name count total_ms self_ms")
		for _, name := range sortedKeys(res.Spans) {
			t := res.Spans[name]
			fmt.Printf("   %-34s %8d %12.3f %12.3f\n", name, t.Count, float64(t.Total)/1e6, float64(t.Self)/1e6)
		}
	}
	for _, n := range res.Notes {
		fmt.Println("   note:", n)
	}
	fmt.Printf("   correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}

func runOne(w workload, cfg runConfig, outPath string) (bool, error) {
	res, err := w.run(cfg)
	if err != nil {
		return false, fmt.Errorf("%s: %w", w.name, err)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	values, err := res.Metrics.export(defs)
	if err != nil {
		return false, fmt.Errorf("%s: %w", w.name, err)
	}
	if res.Attempted < 1 {
		return false, fmt.Errorf("%s: no operation was attempted", w.name)
	}
	report(res, defs, values)
	if outPath != "" {
		line, err := json.Marshal(savedRun{w.name, cfg.seed, cfg.trace, res.Inputs, commit(), res.Correct, values})
		if err != nil {
			return false, err
		}
		f, err := os.OpenFile(outPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return false, err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return false, err
		}
		if err := f.Close(); err != nil {
			return false, err
		}
	}
	line, err := json.Marshal(driverLine{res.Correct, res.Attempted, res.Failed, values})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct && res.Failed == 0, nil
}

func main() {
	var (
		name      = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Int64("seed", 42, "input seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", runSeconds, "length of the timed section")
		trace     = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		smoke     = flag.Bool("smoke", false, "tiny sizes: every code path and check in a few seconds, numbers meaningless")
		out       = flag.String("out", "", "append each run as a JSON line to this file (the input of -compare)")
		traceOut  = flag.String("trace-out", "", "write the traced run's spans as JSON to this file")
		scratch   = flag.String("scratch", filepath.Join(".bench_build", "scratch"), "directory for the stores the workloads build")
		compare   = flag.Bool("compare", false, "compare two -out files: benchmark -compare parent.json change.json")
		printJSON = flag.Bool("print-benchmark-json", false, "print BENCHMARK.json as the ledger defines it")
	)
	flag.Parse()
	switch {
	case *printJSON:
		data, err := json.MarshalIndent(benchmarkJSON(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files: parent.json change.json"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	if *smoke && *seconds == runSeconds {
		*seconds = 0.3
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, traceOut: *traceOut, scratch: *scratch}
	run := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		run = []workload{w}
	}
	allOK := true
	for _, w := range run {
		ok, err := runOne(w, cfg, *out)
		if err != nil {
			fatal(err)
		}
		allOK = allOK && ok
	}
	if !allOK {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
