package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	traceOut string // spans JSON of a traced run; "" writes none
	scratch  string // directory for the stores a workload builds
}

// clients is the closed loop's width: library and HTTP callers of this
// system wait for each reply, so load is a fixed number of callers each
// sending its next operation when the previous one returned.
func clients() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// setupRepeats is how often a full-size untraced run sets up, to report
// a median set-up time; the last instance is the one measured. A traced
// run reports no set-up time and sets up once.
func (c runConfig) setupRepeats() int {
	if c.smoke || c.trace {
		return 1
	}
	return 3
}

// runResult is what one run of one workload produced.
type runResult struct {
	Workload  string
	Seed      int64
	Trace     bool
	Correct   bool
	Attempted int
	Failed    int
	Inputs    string // sha256 of the generated inputs
	Metrics   *metricSet
	Notes     []string
	Spans     map[string]spanTotals
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail records a failed correctness check.
func (r *runResult) fail(n int, format string, args ...any) {
	r.Correct = false
	r.Failed += n
	r.note("CHECK FAILED: "+format, args...)
}

// opSample is one completed operation of a closed loop.
type opSample struct {
	class int
	ms    float64
}

// loopResult is the outcome of one closed-loop section.
type loopResult struct {
	wall    time.Duration
	samples []opSample
	failed  int
	errs    []error
}

// byClass returns the latencies of one operation class, in completion
// order per client.
func (l loopResult) byClass(class int) []float64 {
	var out []float64
	for _, s := range l.samples {
		if s.class == class {
			out = append(out, s.ms)
		}
	}
	return out
}

// closedLoop runs n clients for d. Client c calls op(c, i) for i = 0, 1,
// ... and issues the next call only when the previous one returned; a
// call that started before the deadline runs to completion. op returns
// the operation's class (for split latency reports) and its error; a
// failed operation is counted and contributes no latency.
func closedLoop(n int, d time.Duration, op func(client, i int) (int, error)) loopResult {
	type clientOut struct {
		samples []opSample
		failed  int
		errs    []error
	}
	outs := make([]clientOut, n)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			for i := 0; ; i++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				class, err := op(c, i)
				if err != nil {
					out.failed++
					if len(out.errs) < 3 {
						out.errs = append(out.errs, err)
					}
					continue
				}
				out.samples = append(out.samples, opSample{class: class, ms: float64(time.Since(t0)) / 1e6})
			}
		}(c)
	}
	wg.Wait()
	res := loopResult{wall: time.Since(start)}
	for _, o := range outs {
		res.samples = append(res.samples, o.samples...)
		res.failed += o.failed
		res.errs = append(res.errs, o.errs...)
	}
	return res
}

// medianSetup runs setup repeats times and returns the last instance
// with the median of the set-up times. discard releases an instance
// that is not kept.
func medianSetup[T any](repeats int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var keep T
	times := make([]float64, 0, repeats)
	for r := 0; r < repeats; r++ {
		start := time.Now()
		inst, err := setup()
		if err != nil {
			return keep, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if r < repeats-1 {
			if discard != nil {
				discard(inst)
			}
			// Collect the discarded instance now, so the process's peak
			// memory does not depend on when the collector happens to run
			// between set-ups.
			var zero T
			inst = zero
			runtime.GC()
			continue
		}
		keep = inst
	}
	return keep, median(times), nil
}

// setEndToEnd fills the six end-to-end rows from a timed section. lat
// holds the primary operation's latencies in ms, units the work the
// throughput counts (searches, points, operations), ops the divisor of
// the CPU cost.
func setEndToEnd(r *runResult, setupS float64, lat []float64, tail float64, units, ops int, wall time.Duration, before, after procSample) {
	m := r.Metrics
	sorted := sortedCopy(lat)
	m.set("setup_s", setupS)
	m.setN("op_p50_ms", percentile(sorted, 50), len(sorted))
	tv, used := nominalTail(sorted, tail)
	m.setN("op_tail_ms", tv, len(sorted))
	r.note("op_tail_ms is p%.0f over %d samples", used, len(sorted))
	if used != tail {
		r.note("WARNING: nominal tail p%.0f has fewer than 10 samples beyond it in this run", tail)
	}
	m.set("throughput_per_s", float64(units)/wall.Seconds())
	m.set("cpu_ms_per_op", ratio(float64(after.cpu-before.cpu)/1e6, float64(ops)))
	m.set("peak_rss_mb", peakRSSMB())
}

// scratchDir makes a fresh directory for a store a workload builds, and
// returns it with its remover.
func (c runConfig) scratchDir(name string) (string, func(), error) {
	if err := os.MkdirAll(c.scratch, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(c.scratch, name+"-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
