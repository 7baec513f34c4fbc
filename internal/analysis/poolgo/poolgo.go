// Package poolgo enforces the concurrency discipline of the simulation
// packages: the simulation pipeline is single-threaded by construction, and
// goroutine fan-out lives above it (expr's experiment cells), where each
// worker owns a private engine.
//
// It reports two things:
//
//   - any `go` statement — a goroutine inside the pipeline would share its
//     unsynchronized state and could reorder the aggregation that keeps
//     metrics bit-identical;
//   - a WaitGroup.Add call lexically inside a goroutine's function literal —
//     the classic race where Wait may return before Add runs; Add must
//     precede the `go` statement.
package poolgo

import (
	"go/ast"
	"go/types"

	"parm/internal/analysis"
)

// Analyzer flags bare go statements and misplaced WaitGroup.Add calls.
var Analyzer = &analysis.Analyzer{
	Name: "poolgo",
	Doc: "flags go statements in the single-threaded simulation packages " +
		"and WaitGroup.Add calls inside the spawned goroutine",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			pass.Reportf(gs.Pos(), "go statement in a single-threaded simulation package; "+
				"fan work out above the engine, one private engine per worker")
			if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
				checkAddInside(pass, lit)
			}
			return true
		})
	}
	return nil
}

// checkAddInside reports WaitGroup.Add calls within the goroutine body.
// Nested go statements are not descended into; the outer Inspect visits
// them as their own GoStmt.
func checkAddInside(pass *analysis.Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Add" {
			return true
		}
		if !isWaitGroup(pass, sel.X) {
			return true
		}
		pass.Reportf(call.Pos(), "WaitGroup.Add inside the spawned goroutine races with Wait; "+
			"call Add before the go statement")
		return true
	})
}

// isWaitGroup reports whether expr's type is sync.WaitGroup (or a pointer
// to it).
func isWaitGroup(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}
