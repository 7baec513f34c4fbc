package core

import (
	"reflect"
	"testing"

	"parm/internal/appmodel"
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

// The memoized NoC measurement path must produce bit-identical metrics to
// the reference that measures every window, in both NoC modes: the memo
// keys on exact inputs (quantized ones in auto mode, where the quantized
// flows are also what the window measures).
func TestPipelineCachedMatchesUncached(t *testing.T) {
	w := genWorkload(t, appmodel.WorkloadComm, 8, 0.05, 42)
	run := func(mode NoCMode, noMemo bool) (*Metrics, *Engine) {
		eng, err := NewEngine(Config{SoftDeadlines: true, NoCMode: mode}, MustCombo("PARM", "XY"))
		if err != nil {
			t.Fatal(err)
		}
		eng.win.noMemo = noMemo
		m, err := eng.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		return m, eng
	}
	for _, mode := range []NoCMode{NoCModeCycle, NoCModeAuto} {
		want, ref := run(mode, true)
		got, eng := run(mode, false)

		if got.TotalTime != want.TotalTime || got.PeakPSN != want.PeakPSN ||
			got.AvgPSN != want.AvgPSN || got.MeanPacketLatency != want.MeanPacketLatency ||
			got.TotalVEs != want.TotalVEs || got.TotalEnergyJ != want.TotalEnergyJ ||
			got.Completed != want.Completed || got.Samples != want.Samples {
			t.Errorf("%v: aggregate metrics diverged:\n got %+v\nwant %+v", mode, got, want)
		}
		if len(got.Apps) != len(want.Apps) {
			t.Fatalf("%v: app counts differ: %d vs %d", mode, len(got.Apps), len(want.Apps))
		}
		for i := range want.Apps {
			a, b := got.Apps[i], want.Apps[i]
			if a.Vdd != b.Vdd || a.DoP != b.DoP || a.MappedAt != b.MappedAt ||
				a.CompletedAt != b.CompletedAt || a.WaitTime != b.WaitTime ||
				a.VEs != b.VEs || a.AvgPacketLatency != b.AvgPacketLatency ||
				a.EnergyJ != b.EnergyJ {
				t.Errorf("%v: app %d outcomes diverged:\n got %+v\nwant %+v", mode, i, a, b)
			}
		}

		// The memo must actually have served windows, or this test proves
		// nothing about it; the reference must have measured every one.
		if eng.win.hits == 0 {
			t.Errorf("%v: NoC memo never hit", mode)
		}
		if ref.win.hits != 0 || len(ref.win.memo) != 0 || ref.win.misses != eng.win.hits+eng.win.misses {
			t.Errorf("%v: reference hits=%d entries=%d misses=%d, want 0/0/%d", mode,
				ref.win.hits, len(ref.win.memo), ref.win.misses, eng.win.hits+eng.win.misses)
		}
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
	r1, err := eng.win.measure(flows, &eng.env)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.win.measure(flows, &eng.env)
	if err != nil {
		t.Fatal(err)
	}
	if r2 != r1 {
		t.Error("identical inputs re-simulated")
	}
	if eng.win.hits != 1 || eng.win.misses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", eng.win.hits, eng.win.misses)
	}

	// A changed sensor environment is a different measurement (PANR routing
	// reads env.PSN), even with the same flows.
	eng.env.PSN[3] += 0.01
	if _, err := eng.win.measure(flows, &eng.env); err != nil {
		t.Fatal(err)
	}
	if eng.win.misses != 2 {
		t.Error("changed PSN environment served from memo")
	}
	// Restoring the environment finds the original entry again.
	eng.env.PSN[3] -= 0.01
	if _, err := eng.win.measure(flows, &eng.env); err != nil {
		t.Fatal(err)
	}
	if eng.win.hits != 2 {
		t.Error("restored (flows, PSN) state missed the memo")
	}

	// Flood the bounded history: the oldest entries are evicted and
	// re-simulated on their next appearance.
	for i := 0; i < nocMemoCap; i++ {
		other := []noc.Flow{{App: 2 + i, Src: 1, Dst: 8, Rate: 0.01}}
		if _, err := eng.win.measure(other, &eng.env); err != nil {
			t.Fatal(err)
		}
	}
	misses := eng.win.misses
	if _, err := eng.win.measure(flows, &eng.env); err != nil {
		t.Fatal(err)
	}
	if eng.win.misses != misses+1 {
		t.Error("evicted entry still served from memo")
	}

	// With the memo off, every call measures and nothing is kept.
	ref, err := NewEngine(Config{}, MustCombo("PARM", "PANR"))
	if err != nil {
		t.Fatal(err)
	}
	ref.win.noMemo = true
	for i := 0; i < 2; i++ {
		if _, err := ref.win.measure(flows, &ref.env); err != nil {
			t.Fatal(err)
		}
	}
	if ref.win.hits != 0 || ref.win.misses != 2 || len(ref.win.memo) != 0 {
		t.Errorf("disabled memo still active: hits=%d misses=%d entries=%d",
			ref.win.hits, ref.win.misses, len(ref.win.memo))
	}
}

// wrappedXY routes exactly as XY does, but the engine cannot see that.
type wrappedXY struct{ noc.XY }

// Under XY and ICON, which never read sensor PSN, the NoC memo keys on the
// flow list alone: a changed PSN environment is served from the memo.
// PANR, and any algorithm the engine does not recognise, wrapped XY
// included, keeps PSN in the key.
func TestNoCMemoKeyByRouting(t *testing.T) {
	flows := []noc.Flow{
		{App: 1, Src: 0, Dst: 25, Rate: 0.05},
		{App: 1, Src: 25, Dst: 12, Rate: 0.02},
	}
	wrapped := MustCombo("PARM", "XY")
	wrapped.Routing = wrappedXY{}
	for _, tc := range []struct {
		fw       Framework
		wantHits int
	}{
		{MustCombo("PARM", "XY"), 1},
		{MustCombo("PARM", "ICON"), 1},
		{MustCombo("PARM", "PANR"), 0},
		{wrapped, 0},
	} {
		eng, err := NewEngine(Config{}, tc.fw)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := eng.win.measure(flows, &eng.env)
		if err != nil {
			t.Fatal(err)
		}
		for i := range eng.env.PSN {
			eng.env.PSN[i] += 0.05
		}
		r2, err := eng.win.measure(flows, &eng.env)
		if err != nil {
			t.Fatal(err)
		}
		if eng.win.hits != tc.wantHits {
			t.Errorf("%T: %d memo hits after a PSN change, want %d", tc.fw.Routing, eng.win.hits, tc.wantHits)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("%T: the window changed with PSN alone", tc.fw.Routing)
		}
	}
}
