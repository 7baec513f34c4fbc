package main

import (
	"math"
	"sort"
)

// metricDef is one metric as BENCHMARK.json lists it. Bound is the share of
// the baseline median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an untraced run reports (host time unless the
// name starts with sim_). The sim_ metrics are means over the run's fixed
// inputs, so they repeat exactly and any change in them is a change in the
// simulated results.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"run_s", "s", "lower", 0.24},
	{"apps_per_s", "1/s", "higher", 0.24},
	{"alloc_mb", "MB", "lower", 0.05},
	{"max_rss_mb", "MB", "lower", 0.10},
	{"sim_total_time_s", "sim_s", "lower", 0.01},
	{"sim_avg_psn", "frac", "lower", 0.01},
	{"sim_ves", "count", "lower", 0.01},
	{"sim_completed", "count", "higher", 0.01},
}

// perLayer are the metrics a traced run reports, named <layer>.<metric>
// after the parm/internal package they describe. Counts and seconds are per
// operation of the traced phase.
var perLayer = []metricDef{
	{Name: "noc.windows", Unit: "count/op", Better: "lower"},
	{Name: "noc.cycle_windows", Unit: "count/op", Better: "lower"},
	{Name: "noc.analytic_windows", Unit: "count/op", Better: "higher"},
	{Name: "noc.fallback_windows", Unit: "count/op", Better: "lower"},
	{Name: "noc.analytic_accept_frac", Unit: "frac", Better: "higher"},
	{Name: "noc.memo_hit_frac", Unit: "frac", Better: "higher"},
	{Name: "noc.sim_cycles", Unit: "count/op", Better: "lower"},
	{Name: "noc.route_calls", Unit: "count/op", Better: "lower"},
	{Name: "noc.cycle_s", Unit: "s/op", Better: "lower"},
	{Name: "noc.analytic_s", Unit: "s/op", Better: "lower"},
	{Name: "noc.ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "noc.ms_per_cycle_window", Unit: "ms", Better: "lower"},
	{Name: "noc.share", Unit: "frac", Better: "lower"},
	{Name: "noc.err_total_time", Unit: "frac", Better: "lower"},
	{Name: "noc.err_packet_latency", Unit: "frac", Better: "lower"},
	{Name: "noc.err_avg_psn", Unit: "frac", Better: "lower"},
	{Name: "chip.psn_samples", Unit: "count/op", Better: "lower"},
	{Name: "chip.self_s", Unit: "s/op", Better: "lower"},
	{Name: "pdn.solves", Unit: "count/op", Better: "lower"},
	{Name: "pdn.cache_hit_frac", Unit: "frac", Better: "higher"},
	{Name: "pdn.solve_s", Unit: "s/op", Better: "lower"},
	{Name: "pdn.us_per_solve", Unit: "us", Better: "lower"},
	{Name: "mapping.map_calls", Unit: "count/op", Better: "lower"},
	{Name: "mapping.map_fail_frac", Unit: "frac", Better: "lower"},
	{Name: "mapping.map_s", Unit: "s/op", Better: "lower"},
	{Name: "mapping.map_us_p50", Unit: "us", Better: "lower"},
	{Name: "mapping.map_us_tail", Unit: "us", Better: "lower"},
	{Name: "core.events", Unit: "count/op", Better: "lower"},
	{Name: "core.alg1_scans", Unit: "count/op", Better: "lower"},
	{Name: "core.alg1_candidates", Unit: "count/op", Better: "lower"},
	{Name: "core.alg1_stall_frac", Unit: "frac", Better: "lower"},
	{Name: "core.drops", Unit: "count/op", Better: "lower"},
	{Name: "core.self_s", Unit: "s/op", Better: "lower"},
	{Name: "appmodel.self_s", Unit: "s/op", Better: "lower"},
	{Name: "runtime.gc_s", Unit: "s/op", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count/op", Better: "lower"},
	{Name: "proc.cpu_util", Unit: "frac", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "trace.unattributed_frac", Unit: "frac", Better: "lower"},
}

// metricDefs returns the metrics a run reports in the given mode.
func metricDefs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// median returns the median of xs (0 for none) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" default), the
// rule the benchmark's spread is judged by. One value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// tail returns the value at the highest percentile with at least ten values
// beyond it (p = 1 - 10/n), or 0 when there are fewer than eleven values.
func tail(xs []float64) float64 {
	if len(xs) < 11 {
		return 0
	}
	return sorted(xs)[len(xs)-11]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, or 0 when b is 0 (a count of nothing reads as 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
