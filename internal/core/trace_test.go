package core

import (
	"strings"
	"testing"

	"parm/internal/appmodel"
)

func TestTraceRecording(t *testing.T) {
	w := genWorkload(t, appmodel.WorkloadMixed, 3, 0.08, 21)
	eng, err := NewEngine(Config{}, MustCombo("PARM", "PANR"))
	if err != nil {
		t.Fatal(err)
	}
	tr := eng.EnableTrace()
	m, err := eng.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Points) == 0 {
		t.Fatal("trace recorded nothing")
	}
	prev := -1.0
	for i, p := range tr.Points {
		if p.T < prev {
			t.Fatalf("point %d goes back in time", i)
		}
		prev = p.T
		if len(p.DomainPeak) != eng.Chip().NumDomains() {
			t.Fatalf("point %d has %d domain peaks", i, len(p.DomainPeak))
		}
		if p.ChipPeak < 0 || p.BudgetUsed < 0 {
			t.Fatalf("point %d has negative fields", i)
		}
	}
	// The trace maximum agrees with the run's peak PSN metric.
	maxPeak := 0.0
	for _, p := range tr.Points {
		maxPeak = max(maxPeak, p.ChipPeak)
	}
	if maxPeak != m.PeakPSN {
		t.Errorf("trace max %g != metrics peak %g", maxPeak, m.PeakPSN)
	}
}

func TestTraceCSV(t *testing.T) {
	w := genWorkload(t, appmodel.WorkloadCompute, 2, 0.05, 22)
	eng, err := NewEngine(Config{}, MustCombo("PARM", "XY"))
	if err != nil {
		t.Fatal(err)
	}
	tr := eng.EnableTrace()
	if _, err := eng.Run(w); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tr.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != len(tr.Points)+1 {
		t.Fatalf("%d CSV lines for %d points", len(lines), len(tr.Points))
	}
	if !strings.HasPrefix(lines[0], "t_s,chipPeak,activeAvg,running,queued,budgetW,dom0") {
		t.Errorf("header = %q", lines[0])
	}
	wantCols := strings.Count(lines[0], ",") + 1
	for i, l := range lines[1:] {
		if strings.Count(l, ",")+1 != wantCols {
			t.Fatalf("row %d has wrong arity: %q", i, l)
		}
	}
	// Empty trace still writes a header.
	var empty Trace
	var eb strings.Builder
	if err := empty.WriteCSV(&eb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(eb.String(), "t_s,") {
		t.Error("empty trace missing header")
	}
}

func TestMetricsJSON(t *testing.T) {
	w := genWorkload(t, appmodel.WorkloadMixed, 2, 0.1, 23)
	m := runOne(t, Config{}, MustCombo("PARM", "PANR"), w)
	var b strings.Builder
	if err := m.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`"framework": "PARM+PANR"`,
		`"workload": "mixed"`,
		`"total_energy_j"`,
		`"apps"`,
		`"deadline_met"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %s:\n%s", want, out)
		}
	}
}

func TestEnergyAccounting(t *testing.T) {
	w := genWorkload(t, appmodel.WorkloadCompute, 2, 0.1, 24)
	m := runOne(t, Config{}, MustCombo("PARM", "XY"), w)
	sum := 0.0
	for _, o := range m.Apps {
		if o.State == StateCompleted {
			if o.EnergyJ <= 0 {
				t.Errorf("%s completed with no energy", o.App)
			}
			// Energy is bounded by power budget times residence time.
			if o.EnergyJ > 65*(o.CompletedAt-o.MappedAt)+1e-9 {
				t.Errorf("%s energy %g exceeds budget bound", o.App, o.EnergyJ)
			}
			sum += o.EnergyJ
		}
	}
	if m.TotalEnergyJ != sum {
		t.Errorf("total energy %g != per-app sum %g", m.TotalEnergyJ, sum)
	}
}

// PARM's low-Vdd preference saves energy relative to the greedy
// highest-Vdd-first ablation.
func TestLowVddFirstSavesEnergy(t *testing.T) {
	run := func(highFirst bool) *Metrics {
		fw := MustCombo("PARM", "XY")
		fw.HighVddFirst = highFirst
		w := genWorkload(t, appmodel.WorkloadCompute, 4, 0.1, 25)
		return runOne(t, Config{SoftDeadlines: true}, fw, w)
	}
	low, high := run(false), run(true)
	if low.Completed != 4 || high.Completed != 4 {
		t.Fatalf("incomplete runs: %d, %d", low.Completed, high.Completed)
	}
	if low.TotalEnergyJ >= high.TotalEnergyJ {
		t.Errorf("low-Vdd-first energy %g not below high-Vdd-first %g",
			low.TotalEnergyJ, high.TotalEnergyJ)
	}
}
