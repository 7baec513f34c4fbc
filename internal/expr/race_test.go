package expr

import (
	"strings"
	"testing"

	"parm/internal/appmodel"
	"parm/internal/core"
)

// The runCells worker pool executes independent engine simulations on
// GOMAXPROCS goroutines which all share the package-level appmodel WCET
// cache and, per engine, the chip's PSN solve cache. Running the same cell
// grid twice must give identical metrics in input order; under -race this
// also proves the shared caches are data-race free.
func TestRunCellsConcurrentDeterministic(t *testing.T) {
	opt := Options{NumApps: 2, Seed: 9}
	cells := []cell{
		{fw: core.MustCombo("PARM", "PANR"), kind: appmodel.WorkloadMixed, gap: 0.1},
		{fw: core.MustCombo("PARM", "XY"), kind: appmodel.WorkloadComm, gap: 0.1},
		{fw: core.MustCombo("HM", "XY"), kind: appmodel.WorkloadCompute, gap: 0.1},
		{fw: core.MustCombo("HM", "PANR"), kind: appmodel.WorkloadMixed, gap: 0.1},
	}
	first, err := runCells(opt, cells)
	if err != nil {
		t.Fatal(err)
	}
	second, err := runCells(opt, cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(cells) || len(second) != len(cells) {
		t.Fatalf("result lengths %d/%d, want %d", len(first), len(second), len(cells))
	}
	for i := range cells {
		a, b := first[i], second[i]
		if a.Framework != cells[i].fw.Name {
			t.Errorf("cell %d out of order: got %s", i, a.Framework)
		}
		if a.TotalTime != b.TotalTime || a.PeakPSN != b.PeakPSN ||
			a.AvgPSN != b.AvgPSN || a.Completed != b.Completed ||
			a.TotalVEs != b.TotalVEs {
			t.Errorf("cell %d not reproducible across pool runs:\n first %+v\nsecond %+v", i, a, b)
		}
	}
}

// A failing grid reports its lowest-index failure, whichever worker
// finishes first.
func TestRunCellsReportsLowestIndexError(t *testing.T) {
	bad := func(name string) core.Framework {
		fw := core.MustCombo("HM", "XY")
		fw.Name, fw.FixedDoP = name, 6 // not a DoP value: NewEngine fails
		return fw
	}
	cells := []cell{
		{fw: core.MustCombo("PARM", "XY"), kind: appmodel.WorkloadCompute, gap: 0.1},
		{fw: bad("first-bad"), kind: appmodel.WorkloadCompute, gap: 0.1},
		{fw: bad("second-bad"), kind: appmodel.WorkloadCompute, gap: 0.1},
	}
	_, err := runCells(Options{NumApps: 1, Seed: 9}, cells)
	if err == nil || !strings.HasPrefix(err.Error(), "first-bad/") {
		t.Errorf("runCells error = %v, want the first-bad cell's", err)
	}
}
