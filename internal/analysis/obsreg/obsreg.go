// Package obsreg enforces the telemetry layer's two-phase contract
// (internal/obs): registration is a startup-time operation, updates are the
// only telemetry the hot paths may perform, and every span is closed.
//
// Flagged:
//
//   - Registry.Counter / Registry.Gauge / Registry.Histogram calls inside a
//     loop of a //parm:hot function. Registration takes the registry lock
//     and may allocate, which breaks the 0 allocs/op discipline hotalloc
//     guards; pre-register the metric at startup and update it in the loop.
//   - a Timeline.StartSpan result bound to a local variable that some path
//     to a function exit fails to pass to Timeline.EndSpan. A leaked span
//     stays open on the parent stack, mis-parenting every later span and
//     skewing the rollup; close it on every path (defer EndSpan right after
//     StartSpan is the sanctioned idiom). Locals that escape — stored in a
//     field, passed elsewhere, reassigned — are not tracked: the balance is
//     then someone else's responsibility by design (e.g. the engine's
//     windowSpan field rolls across samples).
//
// Receiver types are matched by name (Registry, Timeline): the analyzer
// also runs over fixture code that cannot import internal/obs, and no other
// type in the module uses those names.
//
// Suppression is //parm:obsreg on the flagged line or the line above it.
package obsreg

import (
	"go/ast"
	"go/token"
	"go/types"

	"parm/internal/analysis"
	"parm/internal/analysis/cfg"
)

// Analyzer flags telemetry registration in hot loops and unbalanced spans.
var Analyzer = &analysis.Analyzer{
	Name: "obsreg",
	Doc: "flags obs.Registry registration calls inside //parm:hot loops and " +
		"obs.Timeline.StartSpan locals not closed by EndSpan on every path",
	Run: run,
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
			checkSpanBalance(pass, f, fd.Body)
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
				if !ok || !registrationMethods[sel.Sel.Name] {
					return true
				}
				if !isMethodOn(pass, call, "Registry", sel.Sel.Name) {
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

// checkSpanBalance verifies every tracked StartSpan local is passed to
// EndSpan on all control-flow paths to a function exit.
//
// Tracked means: bound by `sp := <Timeline>.StartSpan(...)` and used only as
// the first argument of <Timeline>.EndSpan calls. Any other use (field
// store, reassignment, argument passing) conservatively untracks the
// variable — ownership has escaped this function's CFG. A defer'd EndSpan
// closes the span on every path, so deferred closes exempt their variable
// from path analysis. Function literals are skipped throughout (cfg.Inspect
// semantics): a span opened in a closure is that closure's concern.
func checkSpanBalance(pass *analysis.Pass, f *ast.File, body *ast.BlockStmt) {
	// Pass 1: collect candidate span locals defined from StartSpan.
	type spanVar struct {
		def  *ast.Ident // the := binding
		call *ast.CallExpr
	}
	tracked := map[types.Object]spanVar{}
	cfg.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isMethodOn(pass, call, "Timeline", "StartSpan") {
			return true
		}
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			tracked[obj] = spanVar{def: id, call: call}
		}
		return true
	})
	if len(tracked) == 0 {
		return
	}

	// Pass 2: sanction the closing uses (EndSpan arg 0) and untrack
	// everything with any other use. Deferred EndSpans close on every path.
	sanctioned := map[token.Pos]bool{}
	deferClosed := map[types.Object]bool{}
	cfg.Inspect(body, func(n ast.Node) bool {
		var call *ast.CallExpr
		isDefer := false
		switch s := n.(type) {
		case *ast.DeferStmt:
			call, isDefer = s.Call, true
		case *ast.CallExpr:
			call = s
		default:
			return true
		}
		if !isMethodOn(pass, call, "Timeline", "EndSpan") || len(call.Args) == 0 {
			return true
		}
		id, ok := call.Args[0].(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if _, isTracked := tracked[obj]; !isTracked {
			return true
		}
		sanctioned[id.Pos()] = true
		if isDefer {
			deferClosed[obj] = true
		}
		return true
	})
	cfg.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			obj = pass.TypesInfo.Defs[id]
		}
		sv, isTracked := tracked[obj]
		if !isTracked || id == sv.def || sanctioned[id.Pos()] {
			return true
		}
		delete(tracked, obj) // escaped: any non-EndSpan use
		return true
	})
	for obj := range deferClosed {
		delete(tracked, obj) // closed on every path by defer
	}
	if len(tracked) == 0 {
		return
	}

	// Pass 3: may-analysis over the CFG — a span open on ANY path reaching
	// a function exit is a leak on that path.
	g := cfg.New(body)
	step := func(b *cfg.Block, in cfg.Facts[types.Object]) cfg.Facts[types.Object] {
		out := in.Clone()
		for _, node := range b.Nodes {
			cfg.Inspect(node, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					if s.Tok != token.DEFINE || len(s.Lhs) != 1 {
						return true
					}
					if id, ok := s.Lhs[0].(*ast.Ident); ok {
						if obj := pass.TypesInfo.Defs[id]; obj != nil {
							if _, isTracked := tracked[obj]; isTracked {
								out = out.Add(obj)
							}
						}
					}
				case *ast.CallExpr:
					if isMethodOn(pass, s, "Timeline", "EndSpan") && len(s.Args) > 0 {
						if id, ok := s.Args[0].(*ast.Ident); ok {
							out.Delete(pass.TypesInfo.Uses[id])
						}
					}
				}
				return true
			})
		}
		return out
	}
	in := cfg.Forward(g, step)
	reported := map[types.Object]bool{}
	for _, b := range g.Blocks {
		if len(b.Succs) != 0 {
			continue
		}
		// Forward returns fixpoint INPUT facts; re-run the transfer to get
		// what is still open when this exit block falls off the function.
		for obj := range step(b, in[b]) {
			sv, isTracked := tracked[obj]
			if !isTracked || reported[obj] {
				continue
			}
			reported[obj] = true
			if !pass.Suppressed(f, sv.call.Pos(), "obsreg") {
				pass.Reportf(sv.call.Pos(), "StartSpan result %q is not passed to EndSpan on every path; "+
					"defer Timeline.EndSpan right after StartSpan or close it before each return", sv.def.Name)
			}
		}
	}
}

// isMethodOn reports whether call is a method call named method whose
// receiver's (possibly pointer) named type is called typeName.
func isMethodOn(pass *analysis.Pass, call *ast.CallExpr, typeName, method string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == typeName
}
