package sched

import (
	"math"
	"testing"
	"testing/quick"

	"parm/internal/appmodel"
	"parm/internal/pdn"
)

func TestSPMDMakespanNoEdges(t *testing.T) {
	g := &appmodel.APG{
		Bench: "flat",
		Tasks: []appmodel.Task{
			{ID: 0, Activity: pdn.High, WorkCycles: 100},
			{ID: 1, Activity: pdn.High, WorkCycles: 400},
			{ID: 2, Activity: pdn.Low, WorkCycles: 250},
		},
	}
	m, err := SPMDMakespan(g, Config{Freq: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	// Slowest thread bounds the app, its compute inflated by checkpointing.
	if want := 400e-9 * (1 + CheckpointOverheadFrac(1e9)); math.Abs(m-want) > 1e-15 {
		t.Errorf("makespan = %g, want %g", m, want)
	}
}

func TestSPMDMakespanEdgeSharing(t *testing.T) {
	g := &appmodel.APG{
		Bench: "pair",
		Tasks: []appmodel.Task{
			{ID: 0, Activity: pdn.High, WorkCycles: 100},
			{ID: 1, Activity: pdn.High, WorkCycles: 100},
		},
		Edges: []appmodel.Edge{{Src: 0, Dst: 1, Volume: 160}},
	}
	delay := func(appmodel.Edge) float64 { return 40e-9 }
	m, err := SPMDMakespan(g, Config{Freq: 1e9, Delay: delay})
	if err != nil {
		t.Fatal(err)
	}
	// Each endpoint bears half the 40ns transfer: 100ns of (checkpointed)
	// compute + 20ns.
	if want := 100e-9*(1+CheckpointOverheadFrac(1e9)) + 20e-9; math.Abs(m-want) > 1e-15 {
		t.Errorf("makespan = %g, want %g", m, want)
	}
}

func TestSPMDMakespanSyncAndCheckpoint(t *testing.T) {
	g := &appmodel.APG{
		Bench: "one",
		Tasks: []appmodel.Task{{ID: 0, Activity: pdn.High, WorkCycles: 1e6}},
	}
	plain, err := SPMDMakespan(g, Config{Freq: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	sync, err := SPMDMakespan(g, Config{Freq: 1e9, SyncCyclesPerTask: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sync-2*plain) > 1e-15 {
		t.Errorf("sync overhead wrong: %g vs %g", sync, plain)
	}
	// 1e6 cycles at 1 GHz take 1 ms before the checkpoint overhead.
	if over := plain/1e-3 - 1; math.Abs(over-CheckpointOverheadFrac(1e9)) > 1e-12 {
		t.Errorf("checkpoint overhead = %g, want %g", over, CheckpointOverheadFrac(1e9))
	}
}

func TestSPMDMakespanErrors(t *testing.T) {
	g := &appmodel.APG{Bench: "x", Tasks: []appmodel.Task{{ID: 0, Activity: pdn.High, WorkCycles: 1}}}
	if _, err := SPMDMakespan(g, Config{Freq: 0}); err == nil {
		t.Error("zero frequency accepted")
	}
	bad := &appmodel.APG{Bench: "bad", Tasks: []appmodel.Task{{ID: 5, Activity: pdn.High}}}
	if _, err := SPMDMakespan(bad, Config{Freq: 1e9}); err == nil {
		t.Error("invalid graph accepted")
	}
}

// Negative comm delays are clamped.
func TestSPMDMakespanNegativeDelayClamped(t *testing.T) {
	g := appmodel.Benchmarks()[0].Graph(8)
	base, err := SPMDMakespan(g, Config{Freq: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	neg, err := SPMDMakespan(g, Config{Freq: 1e9, Delay: func(appmodel.Edge) float64 { return -1 }})
	if err != nil {
		t.Fatal(err)
	}
	if neg != base {
		t.Errorf("negative delays changed makespan: %g vs %g", neg, base)
	}
}

// Consistency with the profile estimate: with the profile-time comm model,
// the runtime SPMD makespan matches appmodel's SPMDTimeEstimate at the
// clock slowed by the checkpoint overhead, which the estimate leaves out.
func TestSPMDMakespanMatchesEstimate(t *testing.T) {
	for _, bench := range appmodel.Benchmarks()[:4] {
		g := bench.Graph(16)
		freq := 2e9
		sync := bench.SyncCyclesPerTask(16)
		est := g.SPMDTimeEstimate(freq/(1+CheckpointOverheadFrac(freq)), sync)
		got, err := SPMDMakespan(g, Config{
			Freq:              freq,
			SyncCyclesPerTask: sync,
			Delay: func(e appmodel.Edge) float64 {
				return appmodel.EdgeCommCycles(e) / appmodel.RouterHz
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-est)/est > 1e-12 {
			t.Errorf("%s: runtime %g != estimate %g", bench.Name, got, est)
		}
	}
}

// Property: an added uniform comm delay never shortens the makespan.
func TestMakespanMonotoneInDelay(t *testing.T) {
	g := appmodel.Benchmarks()[0].Graph(16)
	f := func(dRaw uint8) bool {
		d := float64(dRaw) * 1e-9
		m0, err0 := SPMDMakespan(g, Config{Freq: 1e9})
		m1, err1 := SPMDMakespan(g, Config{Freq: 1e9, Delay: func(appmodel.Edge) float64 { return d }})
		return err0 == nil && err1 == nil && m1 >= m0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestConstants(t *testing.T) {
	if RollbackPenalty(1e9) <= CheckpointPeriod/2 {
		t.Error("rollback penalty missing restart overhead")
	}
	if RollbackPenalty(0) != 0 || CheckpointOverheadFrac(0) != 0 {
		t.Error("zero frequency not handled")
	}
	// Checkpoint overhead at 1 GHz: 256 cycles per 1 ms = 0.0256%.
	if f := CheckpointOverheadFrac(1e9); math.Abs(f-256e-6) > 1e-12 {
		t.Errorf("checkpoint overhead = %g", f)
	}
}
