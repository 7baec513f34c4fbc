// Package parmvet assembles the project's analyzer suite and scopes each
// analyzer to the packages whose invariants it guards (DESIGN.md §7):
//
//   - det polices every module package except internal/analysis (whose
//     output order driver.Sort fixes): no map or sync.Map iteration order,
//     channel arrival order, select choice, global rand, wall-clock read or
//     %p address may go unsorted, unseeded or unaudited;
//   - unitsafe polices the electrical boundaries (pdn, power, chip);
//   - floateq polices every internal package;
//   - errsink polices internal/ and cmd/ — library and binary code must
//     check or explicitly wave through errors.
//
// cmd/parmvet is a thin wrapper around Check; the analysis driver test runs
// the same suite over ./... so `go test` alone keeps the repository green
// under its own linter.
package parmvet

import (
	"slices"
	"strings"

	"parm/internal/analysis/det"
	"parm/internal/analysis/driver"
	"parm/internal/analysis/errsink"
	"parm/internal/analysis/floateq"
	"parm/internal/analysis/unitsafe"
)

// electricalPackages carry physical quantities across exported boundaries.
var electricalPackages = []string{
	"parm/internal/pdn",
	"parm/internal/power",
	"parm/internal/chip",
}

// Rules returns the suite with its package scoping.
func Rules() []driver.Rule {
	return []driver.Rule{
		{Analyzer: det.Analyzer, Match: func(p string) bool {
			return p != "parm/internal/analysis" && !strings.HasPrefix(p, "parm/internal/analysis/")
		}},
		{Analyzer: unitsafe.Analyzer, Match: func(p string) bool { return slices.Contains(electricalPackages, p) }},
		{Analyzer: floateq.Analyzer, Match: func(p string) bool { return strings.HasPrefix(p, "parm/internal/") }},
		{Analyzer: errsink.Analyzer, Match: func(p string) bool {
			return strings.HasPrefix(p, "parm/internal/") || strings.HasPrefix(p, "parm/cmd/")
		}},
	}
}

// Check runs the suite over the packages named by patterns.
func Check(patterns []string) ([]driver.Finding, error) {
	return driver.Run(patterns, Rules())
}
