package core

import (
	"testing"

	"parm/internal/appmodel"
	"parm/internal/chip"
	"parm/internal/noc"
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
	vddLow := p.VddLevels(0.1)[0]

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

// The cached measurement pipeline must produce bit-identical metrics to the
// uncached reference on the same workload — the determinism contract
// (quantization is applied in both paths and the caches key on exact
// inputs).
func TestPipelineCachedMatchesUncached(t *testing.T) {
	uncached := Config{
		SoftDeadlines:   true,
		DisableNoCCache: true,
		Chip:            chip.Config{DisablePSNCache: true},
	}
	cached := Config{SoftDeadlines: true} // default: both caches on

	run := func(cfg Config) (*Metrics, *Engine) {
		w := genWorkload(t, appmodel.WorkloadMixed, 6, 0.05, 42)
		eng, err := NewEngine(cfg, MustCombo("PARM", "PANR"))
		if err != nil {
			t.Fatal(err)
		}
		m, err := eng.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		return m, eng
	}
	want, _ := run(uncached)
	got, eng := run(cached)

	if got.TotalTime != want.TotalTime || got.PeakPSN != want.PeakPSN ||
		got.AvgPSN != want.AvgPSN || got.MeanPacketLatency != want.MeanPacketLatency ||
		got.TotalVEs != want.TotalVEs || got.TotalEnergyJ != want.TotalEnergyJ ||
		got.Completed != want.Completed || got.Samples != want.Samples {
		t.Errorf("aggregate metrics diverged:\n got %+v\nwant %+v", got, want)
	}
	if len(got.Apps) != len(want.Apps) {
		t.Fatalf("app counts differ: %d vs %d", len(got.Apps), len(want.Apps))
	}
	for i := range want.Apps {
		a, b := got.Apps[i], want.Apps[i]
		if a.Vdd != b.Vdd || a.DoP != b.DoP || a.MappedAt != b.MappedAt ||
			a.CompletedAt != b.CompletedAt || a.WaitTime != b.WaitTime ||
			a.VEs != b.VEs || a.AvgPacketLatency != b.AvgPacketLatency ||
			a.EnergyJ != b.EnergyJ {
			t.Errorf("app %d outcomes diverged:\n got %+v\nwant %+v", i, a, b)
		}
	}

	// The fast path must actually have been exercised, or this test proves
	// nothing about the caches. NoC memo hits need the exact (flows, PSN)
	// pair to recur, which is workload-dependent, so only population is
	// asserted here; hit semantics are covered by TestNoCMeasurementMemo.
	if eng.Chip().PSNCacheStats().Hits == 0 {
		t.Error("PSN solve cache never hit")
	}
	if eng.nocMisses == 0 {
		t.Error("NoC memo never populated")
	}
}

// The NoC measurement memo returns the stored result exactly when both the
// flow list and the sensor PSN environment recur, re-simulates otherwise,
// and forgets entries once the bounded history evicts them.
func TestNoCMeasurementMemo(t *testing.T) {
	eng, err := NewEngine(Config{}, MustCombo("PARM", "PANR"))
	if err != nil {
		t.Fatal(err)
	}
	flows := []noc.Flow{
		{App: 1, Src: 0, Dst: 5, Rate: 0.05},
		{App: 1, Src: 5, Dst: 12, Rate: 0.02},
	}
	r1, err := eng.measurementFor(flows)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.measurementFor(flows)
	if err != nil {
		t.Fatal(err)
	}
	if r2 != r1 {
		t.Error("identical inputs re-simulated")
	}
	if eng.nocHits != 1 || eng.nocMisses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", eng.nocHits, eng.nocMisses)
	}

	// A changed sensor environment is a different measurement (PANR routing
	// reads env.PSN), even with the same flows.
	eng.env.PSN[3] += 0.01
	if _, err := eng.measurementFor(flows); err != nil {
		t.Fatal(err)
	}
	if eng.nocMisses != 2 {
		t.Error("changed PSN environment served from memo")
	}
	// Restoring the environment finds the original entry again.
	eng.env.PSN[3] -= 0.01
	if _, err := eng.measurementFor(flows); err != nil {
		t.Fatal(err)
	}
	if eng.nocHits != 2 {
		t.Error("restored (flows, PSN) state missed the memo")
	}

	// Flood the bounded history: the oldest entries are evicted and
	// re-simulated on their next appearance.
	for i := 0; i < nocMemoCap; i++ {
		other := []noc.Flow{{App: 2 + i, Src: 1, Dst: 8, Rate: 0.01}}
		if _, err := eng.measurementFor(other); err != nil {
			t.Fatal(err)
		}
	}
	misses := eng.nocMisses
	if _, err := eng.measurementFor(flows); err != nil {
		t.Fatal(err)
	}
	if eng.nocMisses != misses+1 {
		t.Error("evicted entry still served from memo")
	}

	// DisableNoCCache keeps the uncached reference path memo-free.
	ref, err := NewEngine(Config{DisableNoCCache: true}, MustCombo("PARM", "PANR"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := ref.measurementFor(flows); err != nil {
			t.Fatal(err)
		}
	}
	if ref.nocHits != 0 || ref.nocMisses != 2 || len(ref.nocMemo) != 0 {
		t.Errorf("disabled memo still active: hits=%d misses=%d entries=%d",
			ref.nocHits, ref.nocMisses, len(ref.nocMemo))
	}
}
