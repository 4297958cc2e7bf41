package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric of the ledger: the row BENCHMARK.json
// carries for it (per-layer rows have no bound, and none is written) and
// the key every run prints it under.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a caller of the system sees, on every workload. The
// driver requires every end-to-end metric from every workload, never
// zero, so only the universal ones live here; the user-visible numbers
// that exist on some workloads only (write latency, open time, disk
// amplification, the paper's quality measures) are the "user." rows of
// perLayer. Bound is the share of the parent's median a metric may
// worsen by before the change counts as a regression.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// perLayer is the attribution ledger of the traced run: one row per
// number a single module is responsible for, named after the module. A
// row reads 0 on a workload that bypasses its layer — that zero is the
// "no movement" prediction for that workload.
var perLayer = []metricDef{
	{Name: "user.search_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "user.search_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "user.search_qps", Unit: "1/s", Better: "higher"},
	{Name: "user.write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "user.write_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "user.open_ms", Unit: "ms", Better: "lower"},
	{Name: "user.disk_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "user.points_per_s", Unit: "1/s", Better: "higher"},
	{Name: "user.acc_ret_at_5", Unit: "ratio", Better: "higher"},
	{Name: "user.err_dist", Unit: "ratio", Better: "lower"},
	{Name: "user.failed_share", Unit: "ratio", Better: "lower"},

	{Name: "sift.extract_us_per_series", Unit: "us", Better: "lower"},
	{Name: "sift.features_per_series", Unit: "count", Better: "lower"},
	{Name: "scalespace.build_us_per_series", Unit: "us", Better: "lower"},

	{Name: "match.us_per_pair", Unit: "us", Better: "lower"},
	{Name: "match.dominant_pairs_per_pair", Unit: "count", Better: "higher"},
	{Name: "match.kept_pairs_per_pair", Unit: "count", Better: "higher"},
	{Name: "match.kept_share", Unit: "ratio", Better: "higher"},

	{Name: "band.build_us_per_pair", Unit: "us", Better: "lower"},
	{Name: "band.cells_share", Unit: "ratio", Better: "lower"},
	{Name: "band.fallback_share", Unit: "ratio", Better: "lower"},

	{Name: "dtw.cells_per_s", Unit: "1/s", Better: "higher"},
	{Name: "dtw.ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "dtw.abandon_cells_share", Unit: "ratio", Better: "higher"},
	{Name: "dtw.spring_ns_per_append", Unit: "ns", Better: "lower"},
	{Name: "dtw.spring_ns_per_skip", Unit: "ns", Better: "lower"},

	{Name: "lower.kim_ns_per_candidate", Unit: "ns", Better: "lower"},
	{Name: "lower.keogh_ns_per_candidate", Unit: "ns", Better: "lower"},
	{Name: "lower.keogh_abandon_share", Unit: "ratio", Better: "higher"},
	{Name: "lower.keogh_tightness", Unit: "ratio", Better: "higher"},
	{Name: "lower.envelope_us_per_series", Unit: "us", Better: "lower"},

	{Name: "sketch.means_us_per_query", Unit: "us", Better: "lower"},
	{Name: "sketch.lbpaa_ns_per_candidate", Unit: "ns", Better: "lower"},
	{Name: "sketch.tightness", Unit: "ratio", Better: "higher"},

	{Name: "core.pair_us", Unit: "us", Better: "lower"},
	{Name: "core.extract_share", Unit: "ratio", Better: "lower"},
	{Name: "core.match_share", Unit: "ratio", Better: "lower"},
	{Name: "core.dp_share", Unit: "ratio", Better: "lower"},
	{Name: "core.warm_us_per_series", Unit: "us", Better: "lower"},

	{Name: "retrieve.candidates_per_query", Unit: "count", Better: "lower"},
	{Name: "retrieve.pruned_sketch_share", Unit: "ratio", Better: "higher"},
	{Name: "retrieve.pruned_kim_share", Unit: "ratio", Better: "higher"},
	{Name: "retrieve.pruned_keogh_share", Unit: "ratio", Better: "higher"},
	{Name: "retrieve.evaluated_share", Unit: "ratio", Better: "lower"},
	{Name: "retrieve.abandoned_share", Unit: "ratio", Better: "higher"},
	{Name: "retrieve.cells_gain", Unit: "ratio", Better: "higher"},
	{Name: "retrieve.cells_per_query", Unit: "count", Better: "lower"},
	{Name: "retrieve.bound_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "retrieve.match_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "retrieve.dp_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "retrieve.self_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "retrieve.clone_add_us", Unit: "us", Better: "lower"},
	{Name: "retrieve.clone_remove_us", Unit: "us", Better: "lower"},

	{Name: "shard.search_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.flat_search_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.fanout_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.add_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.remove_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.skew", Unit: "ratio", Better: "lower"},

	{Name: "serve.http_overhead_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.request_bytes_p50", Unit: "bytes", Better: "lower"},
	{Name: "serve.response_bytes_p50", Unit: "bytes", Better: "lower"},
	{Name: "serve.rejected_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.client_encode_us", Unit: "us", Better: "lower"},
	{Name: "serve.stats_ms", Unit: "ms", Better: "lower"},

	{Name: "store.open_ms", Unit: "ms", Better: "lower"},
	{Name: "store.open_us_per_record", Unit: "us", Better: "lower"},
	{Name: "store.append_us", Unit: "us", Better: "lower"},
	{Name: "store.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "store.tombstone_ms", Unit: "ms", Better: "lower"},
	{Name: "store.load_values_us", Unit: "us", Better: "lower"},
	{Name: "store.cold_faults_per_query", Unit: "count", Better: "lower"},
	{Name: "store.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "store.compact_bytes_rewritten", Unit: "bytes", Better: "lower"},
	{Name: "store.segments", Unit: "count", Better: "lower"},
	{Name: "store.bytes_per_user_byte", Unit: "ratio", Better: "lower"},

	{Name: "vfs.writes", Unit: "count", Better: "lower"},
	{Name: "vfs.write_bytes", Unit: "bytes", Better: "lower"},
	{Name: "vfs.syncs", Unit: "count", Better: "lower"},
	{Name: "vfs.sync_ms_total", Unit: "ms", Better: "lower"},
	{Name: "vfs.reads", Unit: "count", Better: "lower"},
	{Name: "vfs.read_bytes", Unit: "bytes", Better: "lower"},
	{Name: "vfs.renames", Unit: "count", Better: "lower"},
	{Name: "vfs.write_bytes_per_user_byte", Unit: "ratio", Better: "lower"},

	{Name: "hub.push_ns_per_point", Unit: "ns", Better: "lower"},
	{Name: "hub.skip_share", Unit: "ratio", Better: "higher"},
	{Name: "hub.appends_per_point", Unit: "count", Better: "lower"},
	{Name: "hub.backpressure_share", Unit: "ratio", Better: "lower"},
	{Name: "hub.flush_ms", Unit: "ms", Better: "lower"},
	{Name: "hub.matches", Unit: "count", Better: "higher"},
	{Name: "hub.match_lag_points_p50", Unit: "count", Better: "lower"},
	{Name: "hub.match_lag_points_p90", Unit: "count", Better: "lower"},
	{Name: "hub.add_stream_us", Unit: "us", Better: "lower"},
	{Name: "hub.close_stream_us", Unit: "us", Better: "lower"},

	{Name: "monitor.points_per_s", Unit: "1/s", Better: "higher"},

	{Name: "process.cpu_s", Unit: "s", Better: "lower"},
	{Name: "process.cpu_s_per_op", Unit: "s", Better: "lower"},
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "process.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "process.gc_pause_ms_total", Unit: "ms", Better: "lower"},

	{Name: "machine.copy_gb_per_s", Unit: "GB/s", Better: "higher"},
	{Name: "machine.naive_dtw_cells_per_s", Unit: "1/s", Better: "higher"},

	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// metricValue is one measured number as the driver reads it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's measurements by name; samples records how
// many observations stand behind a percentile, for the text report.
type metricSet struct {
	values  map[string]float64
	samples map[string]int
}

func newMetricSet() *metricSet {
	return &metricSet{values: map[string]float64{}, samples: map[string]int{}}
}

func (m *metricSet) set(name string, v float64) { m.values[name] = v }

func (m *metricSet) setN(name string, v float64, n int) {
	m.values[name] = v
	m.samples[name] = n
}

// export lowers the set onto the exact metric list the contract asks
// for: every listed metric appears, unmeasured ones as 0; a measured
// name missing from the list is a programming error.
func (m *metricSet) export(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		v := m.values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range m.values {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is not in the ledger", name)
		}
	}
	return out, nil
}

// tailPercentiles are the candidates of the percentile rule, ascending.
var tailPercentiles = []float64{50, 75, 90, 95, 99}

// tailPercentile is the reporting rule for timings: the highest
// candidate percentile that still has at least ten samples beyond it.
// Below 20 samples even the median fails the rule; it is returned
// anyway so a smoke run has something to print.
func tailPercentile(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

// percentile returns the p-th percentile (nearest rank, 0 < p <= 100) of
// sorted samples; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// nominalTail is percentile at the workload's nominal tail rank, falling
// back to the rule's choice (and saying so) when this run has too few
// samples to support the nominal one.
func nominalTail(sorted []float64, nominal float64) (value, used float64) {
	used = nominal
	if rule := tailPercentile(len(sorted)); rule < nominal {
		used = rule
	}
	return percentile(sorted, used), used
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// ratio is a/b, 0 when b is 0 (a layer that did no work has no rate).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
