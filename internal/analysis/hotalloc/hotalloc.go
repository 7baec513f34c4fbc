// Package hotalloc enforces the allocation-free discipline of the
// measurement hot paths: inside any loop of a function marked //parm:hot
// (the PSN solver's phasor solve and the NoC ring-buffer cycle loop), no
// statement may allocate. The ROADMAP's "fast as the hardware allows" goal
// rests on these paths staying at 0 allocs/op — the companion
// BenchmarkPSNStepAllocs / BenchmarkNoCStepAllocs guards assert the same
// property dynamically with testing.AllocsPerRun.
//
// Loops are found flow-sensitively: the function body's control-flow graph
// is built (internal/analysis/cfg) and a node is "in a loop" when its basic
// block lies on a control-flow cycle, which covers for/range loops of any
// nesting as well as backward branches the syntax alone would miss.
//
// Flagged inside loop blocks of hot functions:
//
//   - make, new — direct allocations;
//   - append — the backing array may grow (suppress with //parm:alloc when
//     the capacity is provably preallocated);
//   - composite literals of slice or map type, and &T{...} — heap
//     allocations;
//   - function literals — closure allocation;
//   - string <-> []byte / []rune conversions — copying allocations;
//   - interface boxing: a concrete, non-pointer-sized value passed where an
//     interface is expected (call arguments, including variadic ...interface{},
//     and explicit conversions) allocates to box the value.
//
// Suppression is //parm:alloc on the flagged line or the line above it,
// asserting the allocation cannot occur at steady state (e.g. an append
// whose capacity was preallocated, or a first-call-only growth path).
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"parm/internal/analysis"
	"parm/internal/analysis/cfg"
)

// Analyzer flags allocations inside loops of //parm:hot functions.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "flags allocations, append growth, closures, and interface boxing " +
		"inside loops of functions marked //parm:hot",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !pass.Suppressed(f, fd.Pos(), "hot") {
				continue // //parm:hot doubles as the marker directive
			}
			checkBody(pass, f, fd.Body)
		}
	}
	return nil
}

// checkBody flags allocation sites inside the loop blocks of one hot
// function body.
func checkBody(pass *analysis.Pass, f *ast.File, body *ast.BlockStmt) {
	g := cfg.New(body)
	loops := g.LoopBlocks()
	for _, b := range g.Blocks {
		if !loops[b] {
			continue
		}
		for _, n := range b.Nodes {
			checkNode(pass, f, n)
		}
	}
}

// checkNode walks one in-loop node, reporting allocation sites. Function
// literal bodies are not descended into (the literal itself is the finding;
// its body runs under its own CFG if the function is itself marked hot).
func checkNode(pass *analysis.Pass, f *ast.File, root ast.Node) {
	cfg.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(pass, f, n.Pos(), "closure allocated in hot loop; hoist the function literal out of the loop")
			return false
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					report(pass, f, n.Pos(), "&composite literal allocates in hot loop; reuse a scratch value")
				}
			}
		case *ast.CompositeLit:
			tv, ok := pass.TypesInfo.Types[n]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				report(pass, f, n.Pos(), "slice literal allocates in hot loop; hoist or reuse a scratch slice")
			case *types.Map:
				report(pass, f, n.Pos(), "map literal allocates in hot loop; hoist or reuse a scratch map")
			}
		case *ast.CallExpr:
			checkCall(pass, f, n)
		}
		return true
	})
}

// checkCall classifies one in-loop call: builtin allocators, allocating
// conversions, and interface-boxing arguments.
func checkCall(pass *analysis.Pass, f *ast.File, call *ast.CallExpr) {
	// Builtins make/new/append.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				report(pass, f, call.Pos(), "make allocates in hot loop; hoist or reuse a scratch buffer")
			case "new":
				report(pass, f, call.Pos(), "new allocates in hot loop; hoist or reuse a scratch value")
			case "append":
				report(pass, f, call.Pos(), "append in hot loop may grow its backing array; "+
					"preallocate capacity and annotate //parm:alloc, or reuse a scratch slice")
			}
			return
		}
	}

	// Conversions: T(x). A conversion allocates when it crosses the
	// string/byte-slice boundary or boxes into an interface.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := pass.TypesInfo.Types[call.Args[0]].Type
		if src != nil {
			if isStringByteConversion(dst, src) {
				report(pass, f, call.Pos(), "string/byte-slice conversion copies in hot loop; hoist it")
				return
			}
			if types.IsInterface(dst.Underlying()) && !types.IsInterface(src.Underlying()) {
				report(pass, f, call.Pos(), "conversion to interface boxes %s in hot loop; hoist it", src)
				return
			}
		}
		return
	}

	// Ordinary call: arguments passed to interface parameters box.
	sig := signatureOf(pass, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := pass.TypesInfo.Types[arg]
		if at.Type == nil || types.IsInterface(at.Type.Underlying()) {
			continue
		}
		if at.IsNil() || at.Value != nil {
			continue // untyped nil / constants: no runtime boxing of a hot value
		}
		if _, isPtr := at.Type.Underlying().(*types.Pointer); isPtr {
			continue // pointers box without copying the pointee; cheap enough
		}
		report(pass, f, arg.Pos(), "argument boxes %s into an interface in hot loop; hoist the call or avoid the interface", at.Type)
	}
}

// signatureOf resolves the static signature of a (non-builtin,
// non-conversion) call, or nil.
func signatureOf(pass *analysis.Pass, call *ast.CallExpr) *types.Signature {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// isStringByteConversion reports whether dst(src) crosses the string <->
// []byte/[]rune boundary (an O(n) copying conversion).
func isStringByteConversion(dst, src types.Type) bool {
	isString := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isString(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isString(src))
}

// report emits a diagnostic unless a //parm:alloc directive covers the line.
func report(pass *analysis.Pass, f *ast.File, pos token.Pos, format string, args ...interface{}) {
	if pass.Suppressed(f, pos, "alloc") {
		return
	}
	pass.Reportf(pos, format, args...)
}
