// Package simclock keeps wall-clock time and global randomness out of the
// simulation packages. Simulated time advances only through the engine's
// event clock, and stochastic inputs (workload arrivals, mapping
// tie-breaks) must flow from an injected, seeded *rand.Rand so a Fig-6
// sweep replays bit-identically. A stray time.Now or global rand.Float64
// silently breaks run-to-run determinism — the same class of bug detrange
// guards against at the map-iteration level.
//
// Flagged:
//
//   - time.Now, time.Since, time.Until — wall-clock reads;
//   - package-level math/rand and math/rand/v2 calls (rand.Intn,
//     rand.Float64, rand.Shuffle, ...) — they draw from the shared global
//     source. Constructors (rand.New, rand.NewSource, rand.NewZipf,
//     rand/v2's NewPCG, NewChaCha8) are allowed: building an injected
//     generator is exactly the sanctioned pattern.
//
// Suppression is //parm:wallclock on the flagged line or the line above it,
// for code that genuinely needs wall time (e.g. a progress log outside the
// measured path).
package simclock

import (
	"go/ast"
	"go/types"

	"parm/internal/analysis"
)

// Analyzer flags wall-clock and global-randomness reads in simulation code.
var Analyzer = &analysis.Analyzer{
	Name: "simclock",
	Doc: "flags time.Now/Since/Until and global math/rand calls in " +
		"simulation packages; inject a clock or seeded *rand.Rand instead",
	Run: run,
}

// randConstructors are the math/rand(/v2) package-level functions that build
// a local generator rather than drawing from the global source.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			switch pkg.Imported().Path() {
			case "time":
				if name == "Now" || name == "Since" || name == "Until" {
					if !pass.Suppressed(f, call.Pos(), "wallclock") {
						pass.Reportf(call.Pos(), "time.%s reads the wall clock in simulation code; "+
							"use the engine's event clock or annotate //parm:wallclock", name)
					}
				}
			case "math/rand", "math/rand/v2":
				if randConstructors[name] {
					return true
				}
				if !pass.Suppressed(f, call.Pos(), "wallclock") {
					pass.Reportf(call.Pos(), "rand.%s draws from the global source in simulation code; "+
						"inject a seeded *rand.Rand or annotate //parm:wallclock", name)
				}
			}
			return true
		})
	}
	return nil
}
