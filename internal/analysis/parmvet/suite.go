// Package parmvet assembles the project's analyzer suite and scopes each
// analyzer to the packages whose invariants it guards (DESIGN.md §7):
//
//   - detrange and poolgo police the deterministic simulation pipeline
//     (core, chip, pdn, noc, mapping, sched);
//   - unitsafe polices the electrical boundaries (pdn, power, chip);
//   - floateq polices every internal package;
//   - hotalloc and lockhold (flow-sensitive, over internal/analysis/cfg)
//     police the whole module: hot-loop allocation-freedom and lock
//     discipline apply wherever //parm:hot functions or mutexes appear;
//   - errsink polices internal/ and cmd/ — library and binary code must
//     check or explicitly wave through errors;
//   - simclock polices the simulation pipeline plus the workload/experiment
//     layers, where wall-clock or global-rand reads break replayability;
//   - obsreg polices the whole module: telemetry registration must stay out
//     of //parm:hot loops and Timeline events must carry simulated, not
//     wall-clock, timestamps;
//   - detflow and maporder (whole-program, over internal/analysis/callgraph
//     and internal/analysis/taint) police the byte-identical contract
//     interprocedurally: no nondeterminism source — map or sync.Map
//     iteration order, channel arrival order, select choice, unseeded
//     global rand, %p formatting — may flow into a determinism sink (json
//     encoding, report tables, timeline records, core.Metrics stores),
//     through any chain of calls, closures, or struct fields.
//
// cmd/parmvet is a thin wrapper around Check; the analysis driver test runs
// the same suite over ./... so `go test` alone keeps the repository green
// under its own linter.
package parmvet

import (
	"strings"

	"parm/internal/analysis/detflow"
	"parm/internal/analysis/detrange"
	"parm/internal/analysis/driver"
	"parm/internal/analysis/errsink"
	"parm/internal/analysis/floateq"
	"parm/internal/analysis/hotalloc"
	"parm/internal/analysis/lockhold"
	"parm/internal/analysis/maporder"
	"parm/internal/analysis/obsreg"
	"parm/internal/analysis/poolgo"
	"parm/internal/analysis/simclock"
	"parm/internal/analysis/unitsafe"
)

// simulationPackages hold the deterministic measurement pipeline.
var simulationPackages = []string{
	"parm/internal/core",
	"parm/internal/chip",
	"parm/internal/pdn",
	"parm/internal/noc",
	"parm/internal/mapping",
	"parm/internal/sched",
}

// electricalPackages carry physical quantities across exported boundaries.
var electricalPackages = []string{
	"parm/internal/pdn",
	"parm/internal/power",
	"parm/internal/chip",
}

// replayablePackages must be deterministic under a fixed seed: the
// simulation pipeline plus the workload-model and experiment layers that
// feed it.
var replayablePackages = append(append([]string{}, simulationPackages...),
	"parm/internal/appmodel",
	"parm/internal/expr",
)

func matchAny(paths []string) func(string) bool {
	return func(p string) bool {
		for _, want := range paths {
			if p == want {
				return true
			}
		}
		return false
	}
}

func matchPrefix(prefix string) func(string) bool {
	return func(p string) bool { return strings.HasPrefix(p, prefix) }
}

// Rules returns the suite with its package scoping.
func Rules() []driver.Rule {
	return []driver.Rule{
		{Analyzer: detrange.Analyzer, Match: matchAny(simulationPackages)},
		{Analyzer: poolgo.Analyzer, Match: matchAny(simulationPackages)},
		{Analyzer: unitsafe.Analyzer, Match: matchAny(electricalPackages)},
		{Analyzer: floateq.Analyzer, Match: matchPrefix("parm/internal/")},
		{Analyzer: hotalloc.Analyzer, Match: matchPrefix("parm/")},
		{Analyzer: lockhold.Analyzer, Match: matchPrefix("parm/")},
		{Analyzer: errsink.Analyzer, Match: func(p string) bool {
			return strings.HasPrefix(p, "parm/internal/") || strings.HasPrefix(p, "parm/cmd/")
		}},
		{Analyzer: simclock.Analyzer, Match: matchAny(replayablePackages)},
		{Analyzer: obsreg.Analyzer, Match: matchPrefix("parm/")},
		// Whole-program rules: the engine always sees every loaded package
		// (flows cross package boundaries); Match scopes where findings may
		// anchor, and the module owns all of it.
		{Analyzer: detflow.Analyzer, Match: matchPrefix("parm/")},
		{Analyzer: maporder.Analyzer, Match: matchPrefix("parm/")},
	}
}

// Check runs the suite over the packages named by patterns.
func Check(patterns []string) ([]driver.Finding, error) {
	return driver.Run(patterns, Rules())
}

// CheckOpts is Check with driver options (CI runs with Tests on).
func CheckOpts(patterns []string, opts driver.Options) ([]driver.Finding, error) {
	return driver.RunDirOpts("", patterns, Rules(), opts)
}
