package core

import (
	"parm/internal/appmodel"
	"parm/internal/power"
)

// SelectionStep records one (Vdd, DoP) combination Algorithm 1 examined for
// an application, with the outcome of each gate: deadline feasibility
// (line 6), dark-silicon power (Algorithm 2 line 1), and mapping-region
// availability (lines 10-11).
type SelectionStep struct {
	Vdd  power.Volts
	DoP  int
	WCET float64
	// DeadlineOK is the line-6 check against the remaining deadline.
	DeadlineOK bool
	// BestEffort marks the SoftDeadlines retry at the fastest point after
	// no combination met the deadline; it is not counted as a candidate.
	BestEffort bool
	// PowerW is the estimated application power; PowerOK the DsPB check.
	// Both are zero for a deadline failure, which never reaches the check.
	PowerW  power.Watts
	PowerOK bool
	// MappingTried reports whether the mapper was invoked; MappingOK
	// whether it found a region.
	MappingTried bool
	MappingOK    bool
	// Chosen marks the combination Algorithm 1 would commit.
	Chosen bool
}

// ExplainSelection runs Algorithm 1's search for app against the engine's
// *current* chip state without committing anything, returning the steps the
// engine examines in search order: they end at the chosen combination, and
// their counts match the app's obs.Decision. Use it to understand why the
// runtime picked — or failed to pick — an operating point.
func (e *Engine) ExplainSelection(app *appmodel.App) []SelectionStep {
	var steps []SelectionStep
	e.scan(app, func(st SelectionStep) { steps = append(steps, st) })
	return steps
}

// ChosenStep returns the step Algorithm 1 would commit, or nil when the
// application cannot currently be mapped.
func ChosenStep(steps []SelectionStep) *SelectionStep {
	for i := range steps {
		if steps[i].Chosen {
			return &steps[i]
		}
	}
	return nil
}

// ExplainOnEmptyChip builds a fresh engine around the framework and explains
// the app on an empty chip at its arrival time — the cmd/parmsim -explain
// entry point.
func ExplainOnEmptyChip(cfg Config, fw Framework, app *appmodel.App) ([]SelectionStep, error) {
	eng, err := NewEngine(cfg, fw)
	if err != nil {
		return nil, err
	}
	eng.now = app.Arrival
	return eng.ExplainSelection(app), nil
}
