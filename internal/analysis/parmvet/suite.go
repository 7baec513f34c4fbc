// Package parmvet assembles the project's analyzer suite and scopes each
// analyzer to the packages whose invariants it guards (DESIGN.md §7):
//
//   - det polices every module package except internal/analysis (whose
//     output order driver.Sort fixes): no map or sync.Map iteration order,
//     channel arrival order, select choice, global rand, wall-clock read or
//     %p address may go unsorted, unseeded or unaudited;
//   - poolgo polices the single-threaded simulation pipeline (core, chip,
//     pdn, noc, mapping, sched);
//   - unitsafe polices the electrical boundaries (pdn, power, chip);
//   - floateq polices every internal package;
//   - hotalloc and lockhold (flow-sensitive, over internal/analysis/cfg)
//     police the whole module: hot-loop allocation-freedom and lock
//     discipline apply wherever //parm:hot functions or mutexes appear;
//   - errsink polices internal/ and cmd/ — library and binary code must
//     check or explicitly wave through errors;
//   - obsreg polices the whole module: telemetry registration must stay out
//     of //parm:hot loops and every Timeline span must be closed.
//
// cmd/parmvet is a thin wrapper around Check; the analysis driver test runs
// the same suite over ./... so `go test` alone keeps the repository green
// under its own linter.
package parmvet

import (
	"strings"

	"parm/internal/analysis/det"
	"parm/internal/analysis/driver"
	"parm/internal/analysis/errsink"
	"parm/internal/analysis/floateq"
	"parm/internal/analysis/hotalloc"
	"parm/internal/analysis/lockhold"
	"parm/internal/analysis/obsreg"
	"parm/internal/analysis/poolgo"
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
		{Analyzer: det.Analyzer, Match: func(p string) bool {
			return p != "parm/internal/analysis" && !strings.HasPrefix(p, "parm/internal/analysis/")
		}},
		{Analyzer: poolgo.Analyzer, Match: matchAny(simulationPackages)},
		{Analyzer: unitsafe.Analyzer, Match: matchAny(electricalPackages)},
		{Analyzer: floateq.Analyzer, Match: matchPrefix("parm/internal/")},
		{Analyzer: hotalloc.Analyzer, Match: matchPrefix("parm/")},
		{Analyzer: lockhold.Analyzer, Match: matchPrefix("parm/")},
		{Analyzer: errsink.Analyzer, Match: func(p string) bool {
			return strings.HasPrefix(p, "parm/internal/") || strings.HasPrefix(p, "parm/cmd/")
		}},
		{Analyzer: obsreg.Analyzer, Match: matchPrefix("parm/")},
	}
}

// Check runs the suite over the packages named by patterns.
func Check(patterns []string) ([]driver.Finding, error) {
	return driver.Run(patterns, Rules())
}
