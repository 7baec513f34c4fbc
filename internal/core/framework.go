// Package core implements the PARM runtime resource-management framework
// (paper §4): the Vdd and DoP selection of Algorithm 1, the service queue
// with FCFS admission, drop-on-stagnation semantics, dark-silicon power
// budgeting, and the event-driven simulation engine that executes workload
// sequences on the modeled CMP while sampling PSN and charging voltage-
// emergency rollbacks.
package core

import (
	"fmt"

	"parm/internal/mapping"
	"parm/internal/noc"
)

// Framework is one evaluated combination of mapping scheme, voltage/DoP
// policy, and NoC routing (paper §5.2 evaluates six: {HM, PARM} x {XY,
// ICON, PANR}).
type Framework struct {
	// Name labels the combination in reports, e.g. "PARM+PANR".
	Name string
	// Mapper selects task placement.
	Mapper mapping.Mapper
	// Routing selects the NoC routing scheme.
	Routing noc.Algorithm
	// AdaptiveVddDoP enables Algorithm 1's joint (Vdd, DoP) search. When
	// false the framework scans voltage only, at FixedDoP — the policy of
	// the HM baseline, which does not adapt parallelism (ref [21] and §5.2:
	// HM's "increased power consumption (due to high Vdd)").
	AdaptiveVddDoP bool
	// FixedDoP is the DoP used when AdaptiveVddDoP is false.
	FixedDoP int
	// HighVddFirst reverses Algorithm 1's voltage search order — the
	// ablation that shows why lowest-Vdd-first matters for PSN and power
	// (DESIGN.md §5).
	HighVddFirst bool
}

// Combo builds the framework combining the given mapper policy and routing
// scheme, named like the paper ("HM+XY"). mapperName must be "PARM" or
// "HM"; routingName one of "XY", "ICON", "PANR".
func Combo(mapperName, routingName string) (Framework, error) {
	alg, ok := noc.AlgorithmByName(routingName)
	if !ok {
		return Framework{}, fmt.Errorf("core: unknown routing %q", routingName)
	}
	switch mapperName {
	case "PARM":
		return Framework{
			Name:           "PARM+" + routingName,
			Mapper:         mapping.PARM{},
			Routing:        alg,
			AdaptiveVddDoP: true,
		}, nil
	case "HM":
		// HM scales voltage to meet deadlines (like any runtime manager)
		// but adapts neither DoP nor placement to PSN; under load its
		// deadline pressure drives Vdd — and hence power and noise — up
		// (§5.2: "increased power consumption (due to high Vdd)").
		return Framework{
			Name:     "HM+" + routingName,
			Mapper:   mapping.HM{},
			Routing:  alg,
			FixedDoP: 16,
		}, nil
	default:
		return Framework{}, fmt.Errorf("core: unknown mapper %q", mapperName)
	}
}

// MustCombo is Combo for statically known names; it panics on error.
func MustCombo(mapperName, routingName string) Framework {
	f, err := Combo(mapperName, routingName)
	if err != nil {
		panic(err)
	}
	return f
}

// EvaluationFrameworks returns the six combinations of §5.2 in the paper's
// order: HM+XY, HM+ICON, HM+PANR, PARM+XY, PARM+ICON, PARM+PANR.
func EvaluationFrameworks() []Framework {
	return []Framework{
		MustCombo("HM", "XY"),
		MustCombo("HM", "ICON"),
		MustCombo("HM", "PANR"),
		MustCombo("PARM", "XY"),
		MustCombo("PARM", "ICON"),
		MustCombo("PARM", "PANR"),
	}
}
