package core

import (
	"testing"

	"parm/internal/appmodel"
	"parm/internal/obs"
)

// checkEndsAtChoice asserts the row-count contract of an explanation that
// found a point: the rows are the candidates the engine examined, so the
// chosen row is the last one and the only one.
func checkEndsAtChoice(t *testing.T, steps []SelectionStep) {
	t.Helper()
	if len(steps) == 0 {
		t.Fatal("no steps")
	}
	for i, st := range steps {
		if st.WCET <= 0 {
			t.Errorf("step %d has no WCET", i)
		}
		if st.Chosen != (i == len(steps)-1) {
			t.Errorf("step %d of %d: Chosen = %v, want only the last", i, len(steps), st.Chosen)
		}
		if st.Chosen && (!st.DeadlineOK || !st.PowerOK || !st.MappingOK) {
			t.Errorf("step %d chosen without passing all gates: %+v", i, st)
		}
	}
}

func TestExplainSelectionStructure(t *testing.T) {
	w := genWorkload(t, appmodel.WorkloadCompute, 1, 0.1, 32)
	steps, err := ExplainOnEmptyChip(Config{}, MustCombo("PARM", "XY"), w.Apps[0])
	if err != nil {
		t.Fatal(err)
	}
	// At most the full PARM search space: 5 voltages x 8 DoPs.
	if len(steps) > 40 {
		t.Fatalf("%d steps, want at most 40", len(steps))
	}
	checkEndsAtChoice(t, steps)
	// Search order: voltages ascending, DoP descending within a voltage.
	for i := 1; i < len(steps); i++ {
		prev, cur := steps[i-1], steps[i]
		if cur.Vdd == prev.Vdd && cur.DoP >= prev.DoP {
			t.Fatalf("DoP not descending at step %d", i)
		}
		if cur.Vdd < prev.Vdd {
			t.Fatalf("Vdd not ascending at step %d", i)
		}
	}
}

func TestExplainHMSearchSpace(t *testing.T) {
	w := genWorkload(t, appmodel.WorkloadCompute, 1, 0.1, 33)
	steps, err := ExplainOnEmptyChip(Config{}, MustCombo("HM", "XY"), w.Apps[0])
	if err != nil {
		t.Fatal(err)
	}
	// HM: at most 5 voltages x the single fixed DoP, voltages ascending.
	if len(steps) > 5 {
		t.Fatalf("%d steps, want at most 5", len(steps))
	}
	checkEndsAtChoice(t, steps)
	for i, st := range steps {
		if st.DoP != 16 {
			t.Errorf("HM explored DoP %d", st.DoP)
		}
		if i > 0 && st.Vdd <= steps[i-1].Vdd {
			t.Errorf("Vdd not ascending at step %d", i)
		}
	}
}

// TestExplainSelectionMatchesEngine pins the explanation to the engine's own
// decision: for a single app arriving on an empty chip, the explained
// choice must be the committed operating point (or both find none), and the
// explained steps must reproduce the decision log's candidate count and
// rejection breakdown. The knee and soft-infeasible cases are the two the
// former explain-side copy of the scan got wrong.
func TestExplainSelectionMatchesEngine(t *testing.T) {
	p := node7()
	knee := kneeBench()
	vddLow := p.VddLevels(0.1)[0]
	w32 := knee.WCETEstimate(p, vddLow, 32)
	minW := w32
	for _, dop := range appmodel.DoPValues() {
		minW = min(minW, knee.WCETEstimate(p, vddLow, dop))
	}
	kneeApp := func(deadline float64) *appmodel.App {
		return &appmodel.App{ID: 1, Bench: knee, RelDeadline: deadline}
	}
	mixed := genWorkload(t, appmodel.WorkloadMixed, 1, 0.1, 31).Apps[0]
	compute := genWorkload(t, appmodel.WorkloadCompute, 1, 0.1, 32).Apps[0]
	// Seed 32's app misses its deadline at HM's fixed DoP 16; seed 33's fits.
	computeHM := genWorkload(t, appmodel.WorkloadCompute, 1, 0.1, 33).Apps[0]
	highFirst := MustCombo("PARM", "XY")
	highFirst.HighVddFirst = true

	for _, tc := range []struct {
		name string
		cfg  Config
		fw   Framework
		app  *appmodel.App
		want bool // whether a point should be chosen
	}{
		{"knee-hard", Config{}, MustCombo("PARM", "PANR"), kneeApp((minW + w32) / 2), true},
		{"knee-soft-infeasible", Config{SoftDeadlines: true}, MustCombo("PARM", "PANR"), kneeApp(1e-6), true},
		{"knee-hard-infeasible", Config{}, MustCombo("PARM", "PANR"), kneeApp(1e-6), false},
		{"mixed-PARM+PANR", Config{}, MustCombo("PARM", "PANR"), mixed, true},
		{"compute-PARM+XY", Config{}, MustCombo("PARM", "XY"), compute, true},
		{"compute-HM+XY", Config{}, MustCombo("HM", "XY"), computeHM, true},
		{"compute-HighVddFirst", Config{}, highFirst, compute, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			app := *tc.app
			app.Arrival = 0
			steps, err := ExplainOnEmptyChip(tc.cfg, tc.fw, &app)
			if err != nil {
				t.Fatal(err)
			}

			eng, err := NewEngine(tc.cfg, tc.fw)
			if err != nil {
				t.Fatal(err)
			}
			dl := obs.NewDecisionLog(16)
			eng.AttachDecisions(dl)
			m, err := eng.Run(&appmodel.Workload{Kind: appmodel.WorkloadComm, Apps: []*appmodel.App{&app}})
			if err != nil {
				t.Fatal(err)
			}
			o := m.Apps[0]
			mapped := o.DoP > 0

			chosen := chosenStep(steps)
			if (chosen != nil) != tc.want || mapped != tc.want {
				t.Fatalf("explain chose %+v, engine mapped = %v; want a choice = %v", chosen, mapped, tc.want)
			}
			if chosen != nil && (o.Vdd != chosen.Vdd || o.DoP != chosen.DoP) {
				t.Errorf("engine committed (%.1f V, DoP %d), explain chose (%.1f V, DoP %d)",
					o.Vdd, o.DoP, chosen.Vdd, chosen.DoP)
			}

			ds := dl.Decisions()
			if len(ds) == 0 {
				t.Fatal("no decision recorded")
			}
			d := ds[0]
			var cand, rejDeadline, rejBudget, rejRegion int
			for _, st := range steps {
				if !st.BestEffort {
					cand++
				}
				switch {
				case !st.DeadlineOK && !st.BestEffort:
					rejDeadline++
				case !st.PowerOK:
					rejBudget++
				case !st.MappingOK:
					rejRegion++
				}
			}
			if cand != d.Candidates || rejDeadline != d.RejDeadline ||
				rejBudget != d.RejBudget || rejRegion != d.RejRegion {
				t.Errorf("explain steps give candidates/deadline/budget/region = %d/%d/%d/%d, decision log %d/%d/%d/%d",
					cand, rejDeadline, rejBudget, rejRegion,
					d.Candidates, d.RejDeadline, d.RejBudget, d.RejRegion)
			}
		})
	}
}

// chosenStep returns the step Algorithm 1 would commit, or nil when the
// application cannot currently be mapped.
func chosenStep(steps []SelectionStep) *SelectionStep {
	for i := range steps {
		if steps[i].Chosen {
			return &steps[i]
		}
	}
	return nil
}

// An explanation marks at most one step chosen, the last one: the scan ends
// at the candidate Algorithm 1 commits, and an app no candidate can host
// under a hard deadline has no chosen step.
func TestChosenStepNil(t *testing.T) {
	app := *genWorkload(t, appmodel.WorkloadMixed, 1, 0.1, 31).Apps[0]
	app.Arrival = 0
	for _, tc := range []struct {
		deadline float64
		want     int
	}{{app.RelDeadline, 1}, {1e-6, 0}} {
		a := app
		a.RelDeadline = tc.deadline
		steps, err := ExplainOnEmptyChip(Config{}, MustCombo("PARM", "PANR"), &a)
		if err != nil {
			t.Fatal(err)
		}
		chosen := 0
		for i, st := range steps {
			if st.Chosen {
				chosen++
				if i != len(steps)-1 {
					t.Errorf("deadline %g: step %d of %d chosen, want the last", tc.deadline, i, len(steps))
				}
			}
		}
		if chosen != tc.want {
			t.Errorf("deadline %g: %d chosen steps, want %d", tc.deadline, chosen, tc.want)
		}
	}
}

// The explanation is read-only: the chip must stay untouched.
func TestExplainSelectionReadOnly(t *testing.T) {
	w := genWorkload(t, appmodel.WorkloadMixed, 1, 0.1, 34)
	eng, err := NewEngine(Config{}, MustCombo("PARM", "PANR"))
	if err != nil {
		t.Fatal(err)
	}
	_ = eng.ExplainSelection(w.Apps[0])
	if len(eng.Chip().FreeDomains()) != eng.Chip().NumDomains() {
		t.Error("explanation occupied domains")
	}
	if eng.Chip().Budget.Used() != 0 {
		t.Error("explanation reserved power")
	}
}
