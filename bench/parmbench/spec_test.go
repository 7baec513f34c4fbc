package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkSpecMatches keeps the repository's BENCHMARK.json and the
// benchmark's own tables in step: workloads, metric names, units,
// directions and bounds, and the run length.
func TestBenchmarkSpecMatches(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(spec.Command, want) {
		t.Errorf("command = %q, want %q", spec.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(spec.Paths, want) {
		t.Errorf("paths = %q, want %q", spec.Paths, want)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %g, -seconds defaults to %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d = %+v, want %s: %s", i, got, w.Name, w.Why)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end =\n%+v\nwant\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer =\n%+v\nwant\n%+v", spec.PerLayer, perLayer)
	}
}
