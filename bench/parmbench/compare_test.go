package main

import (
	"io"
	"math"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// the rule run-to-run spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		// The exclusive method extrapolates past the data for two values.
		{[]float64{5, 1}, 0, 6},
		{[]float64{3}, 3, 3},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

func TestVerdict(t *testing.T) {
	runS := metricDef{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.10}
	appsPerS := metricDef{Name: "apps_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.9}
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", runS, steady, steady, verdictWithin},
		{"5% slower is within a 10% bound", runS, steady, scaled(steady, 1.05), verdictWithin},
		{"20% slower", runS, steady, scaled(steady, 1.2), verdictWorse},
		{"20% faster", runS, steady, scaled(steady, 0.8), verdictBetter},
		{"throughput down 20%", appsPerS, steady, scaled(steady, 0.8), verdictWorse},
		{"throughput up 20%", appsPerS, steady, scaled(steady, 1.2), verdictBetter},
		{"spread wider than the bound", runS, noisy, scaled(noisy, 1.2), verdictUnresolved},
		{"noisy but every run faster", runS, noisy, scaled(noisy, 0.5), verdictBetter},
	} {
		if got := verdict(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// results builds a one-workload results file whose runs read run_s.
func results(correct bool, runS ...float64) *resultsFile {
	wr := workloadResults{Name: "fig6_mixed_cycle"}
	for _, v := range runS {
		wr.Runs = append(wr.Runs, runResult{
			Correct: correct, Attempted: 13, Metrics: map[string]metricValue{"run_s": {Value: v, Unit: "s"}},
		})
	}
	return &resultsFile{Schema: resultsSchema, Workloads: []workloadResults{wr}}
}

func TestCompareResultsExitCode(t *testing.T) {
	base := results(true, 1.50, 1.51, 1.49, 1.50)
	for _, tc := range []struct {
		name string
		b    *resultsFile
		want int
	}{
		{"same code", results(true, 1.51, 1.49, 1.50, 1.52), 0},
		{"faster", results(true, 1.20, 1.21, 1.19, 1.20), 0},
		{"slower past the bound", results(true, 1.95, 1.96, 1.94, 1.95), 1},
		{"failed output checks", results(false, 1.50, 1.51, 1.49, 1.50), 1},
	} {
		if got := compareResults(base, tc.b, io.Discard); got != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.want)
		}
	}
}
