package main

import (
	"testing"

	"parm/internal/core"
)

// TestPerturbedOutputCountsAsFailedOp runs one real operation, then checks
// copies with one field changed: each must fail its check and count in
// error_frac.
func TestPerturbedOutputCountsAsFailedOp(t *testing.T) {
	w, _ := workloadByName("fig6_mixed_cycle")
	const apps = 4
	m, _, err := newRunner(w, apps).single(42, w.Mode, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field   string
		perturb func(*core.Metrics)
	}{
		{"TotalTime", func(m *core.Metrics) { m.TotalTime *= 1 + 1e-12 }},
		{"AvgPSN", func(m *core.Metrics) { m.AvgPSN += 1e-9 }},
		{"Apps[0].VEs", func(m *core.Metrics) { m.Apps[0].VEs++ }},
	} {
		chk, err := newChecker(w, apps)
		if err != nil {
			t.Fatal(err)
		}
		var tl tally
		tl.add(chk.check(42, m, true))
		bad := *m
		bad.Apps = append([]core.AppOutcome(nil), m.Apps...)
		tc.perturb(&bad)
		tl.add(chk.check(42, &bad, true))
		tl.add(chk.check(42, m, true))
		if tl.attempted != 3 || tl.failed != 1 {
			t.Errorf("%s: attempted %d failed %d, want 3 and 1", tc.field, tl.attempted, tl.failed)
		}
		if got := ratio(float64(tl.failed), float64(tl.attempted)); got != 1.0/3 {
			t.Errorf("%s: error_frac = %g, want 1/3", tc.field, got)
		}
	}
}

// TestGoldenDigestMismatch checks that a 20-app cycle workload is held to
// the committed digests, not to its first run.
func TestGoldenDigestMismatch(t *testing.T) {
	w, _ := workloadByName("fig8_comm_hard")
	chk, err := newChecker(w, paperApps)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range anchorSeeds {
		if len(chk.digests[s]) != 64 {
			t.Fatalf("no golden digest for seed %d", s)
		}
	}
	// A 4-app run is a valid output but not the 20-app golden one.
	m, _, err := newRunner(w, 4).single(42, w.Mode, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := chk.check(42, m, true); err == nil {
		t.Fatal("output that differs from the golden digest passed")
	}
}

func TestAutoDriftContract(t *testing.T) {
	w, _ := workloadByName("fig6_mixed_auto")
	chk, err := newChecker(w, paperApps)
	if err != nil {
		t.Fatal(err)
	}
	ref, ok := chk.refs[42]
	if !ok {
		t.Fatal("no golden cycle reference for seed 42")
	}
	m := &core.Metrics{
		TotalTime: ref.TotalTime * 1.02, MeanPacketLatency: ref.MeanPacketLatency * 1.3,
		AvgPSN: ref.AvgPSN, Completed: ref.Completed, Dropped: ref.Dropped,
	}
	if err := chk.checkDrift(42, ref, m, true); err != nil {
		t.Fatalf("drift inside the contract rejected: %v", err)
	}
	if d := chk.drift[0]; d < 0.0199 || d > 0.0201 {
		t.Errorf("recorded total-time drift %g, want 0.02", d)
	}
	m.TotalTime = ref.TotalTime * 1.06
	if err := chk.checkDrift(42, ref, m, true); err == nil {
		t.Error("6% total-time drift passed a 5% contract")
	}
	m.TotalTime, m.Dropped = ref.TotalTime, ref.Dropped+2
	if err := chk.checkDrift(42, ref, m, true); err == nil {
		t.Error("two extra drops passed")
	}
}

// TestSweepGoldenCells checks that the committed Fig 6 cells are the ones
// EXPERIMENTS.md reports.
func TestSweepGoldenCells(t *testing.T) {
	w, _ := workloadByName("fig67_sweep")
	chk, err := newChecker(w, paperApps)
	if err != nil {
		t.Fatal(err)
	}
	if len(chk.cells) != 18 {
		t.Fatalf("%d golden sweep cells, want 18", len(chk.cells))
	}
	for cell, total := range map[string]string{
		"PARM+PANR/mixed":                   "1.034",
		"HM+XY/mixed":                       "1.267",
		"HM+ICON/communication-intensive":   "2.219",
		"PARM+PANR/communication-intensive": "1.296",
	} {
		if got := chk.cells[cell][0]; got != total {
			t.Errorf("%s total time %q, want %q", cell, got, total)
		}
	}
}
