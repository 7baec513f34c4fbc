// Package det flags every syntactic source of nondeterminism. The engine's
// byte-identical-metrics contract (DESIGN.md §6) holds only if no output
// depends on an order or a value that varies from run to run, and every
// such source in Go is a recognizable construct:
//
//   - range over a map, and sync.Map.Range — randomized iteration order;
//   - a channel receive whose value is used inside a for body, and
//     `for x := range ch` — arrival order depends on scheduling;
//   - a select with two or more communication clauses — the runtime picks
//     among ready cases at random;
//   - package-level math/rand and math/rand/v2 draws — the shared global
//     source (constructors such as rand.New, NewSource and NewPCG are the
//     sanctioned way to build an injected, seeded generator);
//   - time.Now, time.Since and time.Until — wall-clock reads;
//   - a %p verb in a fmt format string — addresses differ per run.
//
// A map walk in the collect-then-sort idiom is accepted without a report:
// the loop body is one append to a slice s and the next statement sorts s.
//
// The check is per statement, not per flow: a source whose result provably
// cannot reach an output (content-keyed collection from a worker pool, an
// order-free aggregation) still needs an audited //parm:det on its line or
// the line above. The directive must give its reason, as trailing text or
// as a comment in the same comment group; a bare //parm:det suppresses
// nothing.
package det

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"parm/internal/analysis"
)

// Analyzer flags nondeterminism sources.
var Analyzer = &analysis.Analyzer{
	Name: "det",
	Doc: "flags nondeterminism sources (map and sync.Map iteration, channel " +
		"receives in loops, multi-case select, global math/rand, wall clock, %p); " +
		"sort, seed, or annotate //parm:det with a reason",
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

// sortFuncs are the sort and slices functions that order their first
// argument in place.
var sortFuncs = map[string]bool{
	"Ints": true, "Strings": true, "Float64s": true, "Sort": true, "Stable": true,
	"Slice": true, "SliceStable": true, "SortFunc": true, "SortStableFunc": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		audited := auditedLines(pass, f)
		// stack holds the ancestors of the node being visited.
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if pos, msg := source(pass, n, stack); msg != "" && !audited[pass.Fset.Position(pos).Line] {
				pass.Reportf(pos, "%s; sort, seed, or annotate //parm:det with a reason", msg)
			}
			stack = append(stack, n)
			return true
		})
	}
	return nil
}

// source classifies n, whose ancestors are stack, and returns the position
// and description of the nondeterminism it introduces, or "" if none.
func source(pass *analysis.Pass, n ast.Node, stack []ast.Node) (token.Pos, string) {
	switch n := n.(type) {
	case *ast.RangeStmt:
		tv, ok := pass.TypesInfo.Types[n.X]
		if !ok {
			return 0, ""
		}
		switch tv.Type.Underlying().(type) {
		case *types.Map:
			if !isCollectThenSort(pass, n, nextStmt(stack[len(stack)-1], n)) {
				return n.Pos(), "range over map " + types.ExprString(n.X) + " has nondeterministic order"
			}
		case *types.Chan:
			if n.Key != nil {
				return n.Pos(), "range over channel " + types.ExprString(n.X) + " binds values in arrival order"
			}
		}
	case *ast.UnaryExpr:
		if n.Op != token.ARROW || !inLoopBody(stack) {
			return 0, ""
		}
		if _, discarded := stack[len(stack)-1].(*ast.ExprStmt); !discarded {
			return n.Pos(), "channel receive in a loop binds values in arrival order"
		}
	case *ast.SelectStmt:
		comms := 0
		for _, c := range n.Body.List {
			if c.(*ast.CommClause).Comm != nil {
				comms++
			}
		}
		if comms >= 2 {
			return n.Pos(), "select with several communication clauses picks among ready cases at random"
		}
	case *ast.CallExpr:
		return n.Pos(), callSource(pass, n)
	}
	return 0, ""
}

// callSource describes the nondeterminism a call introduces, or "".
func callSource(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	name := fn.Name()
	if fn.FullName() == "(*sync.Map).Range" {
		return "sync.Map.Range has nondeterministic order"
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		if name == "Now" || name == "Since" || name == "Until" {
			return "time." + name + " reads the wall clock"
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[name] {
			return "rand." + name + " draws from the global source"
		}
	case "fmt":
		for _, arg := range call.Args {
			tv := pass.TypesInfo.Types[arg]
			if tv.Value != nil && tv.Value.Kind() == constant.String &&
				strings.Contains(constant.StringVal(tv.Value), "%p") {
				return "fmt." + name + " formats a pointer address with %p"
			}
		}
	}
	return ""
}

// inLoopBody reports whether the innermost enclosing statement list on
// stack lies in the body of a for or range loop.
func inLoopBody(stack []ast.Node) bool {
	for i := len(stack) - 1; i > 0; i-- {
		switch loop := stack[i-1].(type) {
		case *ast.ForStmt:
			if loop.Body == stack[i] {
				return true
			}
		case *ast.RangeStmt:
			if loop.Body == stack[i] {
				return true
			}
		}
	}
	return false
}

// nextStmt returns the statement after s in parent's statement list, or nil.
func nextStmt(parent ast.Node, s ast.Stmt) ast.Stmt {
	var list []ast.Stmt
	switch p := parent.(type) {
	case *ast.BlockStmt:
		list = p.List
	case *ast.CaseClause:
		list = p.Body
	case *ast.CommClause:
		list = p.Body
	}
	for i := 0; i+1 < len(list); i++ {
		if list[i] == s {
			return list[i+1]
		}
	}
	return nil
}

// isCollectThenSort reports whether rs is the collection half of the
// sorted-iteration idiom:
//
//	for k, v := range m { s = append(s, f(k, v)) }
//	sort.Slice(s, ...) // or any sortFuncs entry of sort or slices
//
// The body must be that single append and next must sort the same s.
func isCollectThenSort(pass *analysis.Pass, rs *ast.RangeStmt, next ast.Stmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	asg, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	app, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(app.Args) < 2 {
		return false
	}
	if fn, ok := app.Fun.(*ast.Ident); !ok || fn.Name != "append" {
		return false
	}
	s := types.ExprString(asg.Lhs[0])
	if types.ExprString(app.Args[0]) != s {
		return false
	}
	es, ok := next.(*ast.ExprStmt)
	if !ok {
		return false
	}
	sortCall, ok := es.X.(*ast.CallExpr)
	if !ok || len(sortCall.Args) == 0 {
		return false
	}
	sel, ok := sortCall.Fun.(*ast.SelectorExpr)
	if !ok || !sortFuncs[sel.Sel.Name] {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || (fn.Pkg().Path() != "sort" && fn.Pkg().Path() != "slices") {
		return false
	}
	return types.ExprString(sortCall.Args[0]) == s
}

// auditedLines returns the lines that a //parm:det directive with a reason
// annotates: its own line and the line below. The reason is text after the
// directive or another, non-directive comment in its comment group.
func auditedLines(pass *analysis.Pass, f *ast.File) map[int]bool {
	const det = analysis.DirectivePrefix + "det"
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		explained := false
		for _, c := range cg.List {
			explained = explained || !strings.HasPrefix(c.Text, analysis.DirectivePrefix)
		}
		for _, c := range cg.List {
			reason, ok := strings.CutPrefix(c.Text, det)
			if !ok || (reason != "" && reason[0] != ' ' && reason[0] != '\t') {
				continue
			}
			if explained || strings.TrimSpace(reason) != "" {
				line := pass.Fset.Position(c.Pos()).Line
				lines[line], lines[line+1] = true, true
			}
		}
	}
	return lines
}
