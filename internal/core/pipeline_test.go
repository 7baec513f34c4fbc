package core

import (
	"reflect"
	"testing"

	"parm/internal/appmodel"
)

// kneeBench is a synthetic communication-intensive benchmark whose WCET
// minimum (the sync knee, DESIGN.md §2) sits well below DoP 32: the heavy
// synchronization term makes WCET(32) > WCET(16) at every Vdd. The name is
// unique so the package-level WCET cache cannot collide with pool benchmarks.
func kneeBench() appmodel.Benchmark {
	return appmodel.Benchmark{
		Name:               "synthetic-knee",
		Kind:               appmodel.CommIntensive,
		Shape:              appmodel.ShapeForkJoin,
		WorkGCycles:        2.0,
		SerialFrac:         0.02,
		SyncKCyclesPerTask: 60000,
		CommMBTotal:        2000,
		HighTaskFrac:       0.4,
	}
}

// Regression test for the Algorithm 1 DoP scan: a deadline miss at a high
// DoP must not abandon the Vdd level while WCET is still falling toward the
// sync knee. With the old first-miss break, this app's DoP-32 miss at 0.4 V
// escalated straight to 0.5 V even though a mid DoP met the deadline at
// 0.4 V — PARM's "lowest Vdd first" guarantee silently broke for
// communication-intensive benchmarks whose knee sits below DoP 32.
func TestAlgorithm1ScansPastSyncKnee(t *testing.T) {
	b := kneeBench()
	p := node7()
	vddLow := p.VddLevels()[0]

	// Establish the knee shape this test depends on, so a profile-model
	// change fails loudly here instead of silently weakening the test.
	w32 := b.WCETEstimate(p, vddLow, 32)
	minW, minDoP := w32, 32
	for _, dop := range appmodel.DoPValues() {
		if w := b.WCETEstimate(p, vddLow, dop); w < minW {
			minW, minDoP = w, dop
		}
	}
	if minDoP >= 32 || minW >= w32 {
		t.Fatalf("benchmark lost its knee: min WCET %.3f at DoP %d, WCET(32)=%.3f",
			minW, minDoP, w32)
	}

	// A deadline between the knee WCET and the DoP-32 WCET: infeasible at
	// DoP 32, feasible at the knee, all at the lowest Vdd.
	deadline := (minW + w32) / 2
	w := &appmodel.Workload{
		Kind: appmodel.WorkloadComm,
		Apps: []*appmodel.App{{ID: 1, Bench: b, Arrival: 0, RelDeadline: deadline}},
	}
	m := runOne(t, Config{}, MustCombo("PARM", "PANR"), w)
	o := m.Apps[0]
	if o.MappedAt == 0 && o.State == StateDropped {
		t.Fatal("app dropped; scan never reached a feasible DoP")
	}
	if o.Vdd != vddLow {
		t.Errorf("mapped at %.1f V, want %.1f V: DoP scan bailed before the sync knee", o.Vdd, vddLow)
	}
	if got := b.WCETEstimate(p, o.Vdd, o.DoP); got >= deadline {
		t.Errorf("chosen DoP %d has WCET %.3f >= deadline %.3f", o.DoP, got, deadline)
	}
}

// The engine's results must not depend on whether the chip's pdn solve
// cache computed a domain solve or served it. The second run of a workload
// gets the first run's chip, whose cache already holds every load signature
// the workload produces, so every solve of that run is served from the
// cache; both runs must agree bit for bit. A key that conflated two load
// signatures would mislead both runs alike; the chip tests compare against
// a chip without the cache for that.
func TestPipelineCachedMatchesUncached(t *testing.T) {
	w := genWorkload(t, appmodel.WorkloadComm, 8, 0.05, 42)
	for _, mode := range []NoCMode{NoCModeCycle, NoCModeAuto} {
		cfg := Config{SoftDeadlines: true, NoCMode: mode}
		first, err := NewEngine(cfg, MustCombo("PARM", "XY"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := first.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		if want.Completed != len(w.Apps) {
			t.Fatalf("%v: first run completed %d of %d apps; its chip is not idle", mode, want.Completed, len(w.Apps))
		}
		second, err := NewEngine(cfg, MustCombo("PARM", "XY"))
		if err != nil {
			t.Fatal(err)
		}
		// Keep the unused chip's power ledger, which carries no rounding
		// residue from the first run's reservations and releases.
		warm := first.Chip()
		warm.Budget = second.chip.Budget
		second.chip = warm
		before := warm.PSNCacheStats()
		got, err := second.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		after := warm.PSNCacheStats()
		if after.Misses != before.Misses || after.Hits == before.Hits {
			t.Errorf("%v: warm run missed the pdn cache %d times and hit it %d times, want 0 and more",
				mode, after.Misses-before.Misses, after.Hits-before.Hits)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: metrics diverged with every solve served from the cache:\n got %+v\nwant %+v", mode, got, want)
		}
	}
}
