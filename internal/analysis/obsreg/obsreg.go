// Package obsreg enforces the telemetry layer's two-phase contract
// (internal/obs): registration is a startup-time operation, and updates are
// the only telemetry the hot paths may perform.
//
// Flagged: Registry.Counter / Registry.Gauge / Registry.Histogram calls
// inside a loop of a //parm:hot function. Registration takes the registry
// lock and may allocate, which breaks the 0 allocs/op discipline hotalloc
// guards; pre-register the metric at startup and update it in the loop.
//
// The receiver type is matched by name (Registry): the analyzer also runs
// over fixture code that cannot import internal/obs, and no other type in
// the module uses that name.
//
// Suppression is //parm:obsreg on the flagged line or the line above it.
package obsreg

import (
	"go/ast"
	"go/types"

	"parm/internal/analysis"
	"parm/internal/analysis/cfg"
)

// Analyzer flags telemetry registration in hot loops.
var Analyzer = &analysis.Analyzer{
	Name: "obsreg",
	Doc:  "flags obs.Registry registration calls inside //parm:hot loops",
	Run:  run,
}

// registrationMethods are the Registry methods that allocate and lock.
var registrationMethods = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pass.Suppressed(f, fd.Pos(), "hot") {
				checkHotBody(pass, f, fd.Body)
			}
		}
	}
	return nil
}

// checkHotBody flags registration calls inside the loop blocks of one
// //parm:hot function body.
func checkHotBody(pass *analysis.Pass, f *ast.File, body *ast.BlockStmt) {
	g := cfg.New(body)
	loops := g.LoopBlocks()
	for _, b := range g.Blocks {
		if !loops[b] {
			continue
		}
		for _, node := range b.Nodes {
			cfg.Inspect(node, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !registrationMethods[sel.Sel.Name] || !onRegistry(pass, sel) {
					return true
				}
				if !pass.Suppressed(f, call.Pos(), "obsreg") {
					pass.Reportf(call.Pos(), "Registry.%s registers a metric inside a hot loop; "+
						"pre-register at startup and update the stored handle here", sel.Sel.Name)
				}
				return true
			})
		}
	}
}

// onRegistry reports whether sel's receiver has the (possibly pointer)
// named type Registry.
func onRegistry(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}
