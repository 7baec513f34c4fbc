package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestParseTracesFixture reduces a committed `go tool pprof -traces` text
// and checks each attribution rule against stacks taken from real profiles.
func TestParseTracesFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	ms := time.Millisecond
	want := map[string]time.Duration{
		// traverseRouter under Run, and NewNetwork's allocation outside
		// AnalyticMeasure, are cycle simulation.
		bucketNoCCycle: 70 * ms,
		// NewNetwork under AnalyticMeasure, and geom helpers called from
		// it, are the closed form.
		bucketNoCAnalytic: 30 * ms,
		// PSN worker stacks are rooted in chip.(*Chip).SamplePSN.func1 and
		// hold no core frame: the solver's samples go to pdn, the worker
		// loop's own to chip.
		"pdn":  10 * ms,
		"chip": 10 * ms,
		// A background mark worker and a mark assist inside a NoC
		// allocation are both garbage collection.
		bucketGC: 20 * ms,
		// geom.ManhattanDist is a helper: charged to the mapping caller,
		// not to the benchmark's Map wrapper.
		"mapping": 10 * ms,
		// math/rand seeding inside Generate.
		"appmodel": 10 * ms,
		// core's own frame, an obs counter called from core, and
		// sched.SPMDMakespan called from core.
		"core": 30 * ms,
		// The scheduler's idle loop and ReadMemStats from the benchmark
		// hold no layer frame.
		bucketNone: 20 * ms,
	}
	for b, d := range want {
		if got := p.buckets[b]; got != d {
			t.Errorf("bucket %s = %v, want %v", b, got, d)
		}
	}
	for b := range p.buckets {
		if _, ok := want[b]; !ok {
			t.Errorf("unexpected bucket %s = %v", b, p.buckets[b])
		}
	}
	if p.total != 210*ms {
		t.Errorf("total = %v, want 210ms", p.total)
	}
	if got, want := p.share(bucketNone), 20.0/210; math.Abs(got-want) > 1e-12 {
		t.Errorf("unattributed share = %g, want %g", got, want)
	}

	counts := map[string]float64{"noc.sim_cycles": 19000, "noc.cycle_windows": 2, "pdn.solves": 100}
	m := profileMetrics(p, counts, 2)
	for name, v := range map[string]float64{
		"noc.cycle_s":             0.035,
		"noc.analytic_s":          0.015,
		"noc.ns_per_cycle":        0.035 / 19000 * 1e9,
		"noc.ms_per_cycle_window": 0.035 / 2 * 1e3,
		"noc.share":               100.0 / 210,
		"runtime.gc_s":            0.010,
		"pdn.us_per_solve":        0.005 / 100 * 1e6,
		"trace.unattributed_frac": 20.0 / 210,
	} {
		if got := m[name]; math.Abs(got-v) > 1e-9*math.Abs(v) {
			t.Errorf("%s = %g, want %g", name, got, v)
		}
	}
}

func TestParseTracesRejectsBadValue(t *testing.T) {
	in := "-----------+----\n      tenms   parm/internal/noc.(*Network).Run\n"
	if _, err := parseTraces(strings.NewReader(in)); err == nil {
		t.Fatal("malformed sample value accepted")
	}
}
