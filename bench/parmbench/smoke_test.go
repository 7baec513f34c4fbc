package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// smokeApps keeps an operation to a fraction of a second; no golden file
// covers it, so outputs are checked by invariants, repeat identity and the
// auto-mode drift contract.
const smokeApps = 6

// TestSmoke runs one pass of every single-run workload with output checks
// on: a broken benchmark shows here without a full timed phase.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		if w.Sweep {
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			rep, err := measure(runConfig{W: w, Apps: smokeApps, Seed: 7, Seconds: 0, Dir: t.TempDir()}, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Attempted < len(anchorSeeds)+1 {
				t.Fatalf("attempted %d, failed %d", rep.Attempted, rep.Failed)
			}
			for _, d := range endToEnd {
				if d.Name == "max_rss_mb" { // measured by the parent
					continue
				}
				if v, ok := rep.Metrics[d.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want finite and positive", d.Name, v)
				}
			}
		})
	}
}

// TestSmokeTraced runs the traced pass of the auto workload: every per-layer
// count is reported, the NoC shows both window kinds, and the Chrome trace
// is valid JSON with Map spans.
func TestSmokeTraced(t *testing.T) {
	w, _ := workloadByName("fig6_mixed_auto")
	rep, err := measure(runConfig{W: w, Apps: smokeApps, Seed: 7, Seconds: 0, Traced: true, Dir: t.TempDir()}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.TracedOps != len(anchorSeeds) {
		t.Fatalf("failed %d, traced ops %d", rep.Failed, rep.TracedOps)
	}
	profiled := profileMetrics(layerProfile{}, nil, 1)
	for _, d := range perLayer {
		if _, ok := profiled[d.Name]; ok {
			continue
		}
		if _, ok := rep.Metrics[d.Name]; !ok {
			t.Errorf("per-layer metric %s missing", d.Name)
		}
	}
	for _, name := range []string{"noc.analytic_windows", "noc.cycle_windows", "noc.route_calls", "mapping.map_calls", "core.alg1_scans", "pdn.solves"} {
		if !(rep.Metrics[name] > 0) {
			t.Errorf("%s = %g, want > 0", name, rep.Metrics[name])
		}
	}
	b, err := os.ReadFile(rep.ChromeTrace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	maps := 0
	for _, e := range doc.TraceEvents {
		if e.Name == "map" && e.Ph == "X" {
			maps++
		}
	}
	if want := int(math.Round(rep.Metrics["mapping.map_calls"] * float64(rep.TracedOps))); maps != want {
		t.Errorf("%d map spans in the Chrome trace, want %d", maps, want)
	}
	if fi, err := os.Stat(rep.Profile); err != nil || fi.Size() == 0 {
		t.Errorf("CPU profile %s missing or empty: %v", rep.Profile, err)
	}
}

// TestSmokeTracedSweep checks that the traced sweep, which runs the cells
// itself with wrapped frameworks, reproduces expr.Fig6and7's tables: with
// no golden file at this size, the untraced sweep's cells are the reference.
func TestSmokeTracedSweep(t *testing.T) {
	w, _ := workloadByName("fig67_sweep")
	rep, err := measure(runConfig{W: w, Apps: 2, Seed: 7, Seconds: 0, Traced: true, Dir: t.TempDir()}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempted != 2 || rep.Failed != 0 {
		t.Fatalf("attempted %d, failed %d; want 2 sweeps, none failed", rep.Attempted, rep.Failed)
	}
	if !(rep.Metrics["noc.route_calls"] > 0 && rep.Metrics["mapping.map_calls"] > 0) {
		t.Errorf("wrappers saw no calls: %v", rep.Metrics)
	}
}
