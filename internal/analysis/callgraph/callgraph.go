// Package callgraph builds a whole-program call graph over the packages a
// ProgramPass carries, on the standard library alone. It is the reachability
// layer under the interprocedural analyzers (detflow, maporder): function
// summaries propagate along its edges.
//
// Resolution is deliberately an over-approximation, which is the safe
// direction for the determinism lints built on top (a spurious edge can at
// worst produce a finding a human audits; a missing edge hides one):
//
//   - direct calls of declared functions and methods become Static edges;
//   - calls through an interface become one Interface edge per concrete
//     type declared anywhere in the program that implements the interface
//     (method sets computed per type, pointer receivers included);
//   - a function or method value that escapes into a variable, field, or
//     argument becomes a Ref edge from the function that takes the value —
//     the graph assumes it may be called from there;
//   - a function literal becomes its own node with a Lit edge from the
//     enclosing function, again assumed callable.
//
// Calls of plain func-typed variables are not resolved (the Ref edges of
// the values that could reach them keep their targets reachable), and
// reflection is out of scope.
//
// Node identity is canonical by types.Func.FullName, so two type-check runs
// over the same source (the -tests augmented variant of a package) resolve
// to one node.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"parm/internal/analysis"
)

// EdgeKind classifies how a call edge was resolved.
type EdgeKind int

const (
	// Static is a direct call of a declared function or concrete method.
	Static EdgeKind = iota
	// Interface is one candidate of an interface-dispatched call.
	Interface
	// Ref marks a function value taken without being called; the holder may
	// call it later.
	Ref
	// Lit links a function to a literal it creates (incl. goroutine bodies).
	Lit
)

// String names the kind for diagnostics and tests.
func (k EdgeKind) String() string {
	switch k {
	case Static:
		return "static"
	case Interface:
		return "interface"
	case Ref:
		return "ref"
	default:
		return "lit"
	}
}

// Node is one function in the program: a declared function or method
// (Fn/Decl set) or a function literal (Lit set, Fn nil).
type Node struct {
	// Fn is the canonical object of a declared function; nil for literals.
	Fn *types.Func
	// Decl is the declaration carrying the body; nil for literals and for
	// functions declared without a body (assembly stubs).
	Decl *ast.FuncDecl
	// Lit is the literal for anonymous-function nodes.
	Lit *ast.FuncLit
	// Pkg is the package whose Info type-checked the node's body.
	Pkg *analysis.ProgramPackage
	// Out lists the outgoing call edges, in deterministic build order.
	Out []*Edge

	name string
}

// Name returns the canonical display name: types.Func.FullName for declared
// functions, "<owner>$litN" for literals.
func (n *Node) Name() string { return n.name }

// Body returns the node's function body, or nil when no source is loaded.
func (n *Node) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	if n.Lit != nil {
		return n.Lit.Body
	}
	return nil
}

// Edge is one resolved (or assumed) call from Caller to Callee.
type Edge struct {
	Caller, Callee *Node
	// Site anchors the edge in source: the CallExpr for Static/Interface,
	// the value expression for Ref, the literal for Lit.
	Site ast.Node
	Kind EdgeKind
}

// Graph is the whole-program call graph.
type Graph struct {
	Fset *token.FileSet
	// Packages is the program the graph was built from, in load order.
	Packages []*analysis.ProgramPackage
	// Nodes lists every function in deterministic order: declared functions
	// in (package, position) order, then literals in discovery order.
	Nodes []*Node

	byName map[string]*Node
	// bySite indexes call edges by their CallExpr for the taint layer.
	bySite map[ast.Node][]*Edge
}

// NodeOf returns the node of a declared function (matching by canonical
// FullName, so objects from different type-check runs unify), or nil.
func (g *Graph) NodeOf(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.byName[fn.FullName()]
}

// CalleesAt returns the candidate callees of one call expression, in
// deterministic order. Unresolved (dynamic) calls return nil.
func (g *Graph) CalleesAt(call *ast.CallExpr) []*Node {
	edges := g.bySite[call]
	out := make([]*Node, 0, len(edges))
	for _, e := range edges {
		out = append(out, e.Callee)
	}
	return out
}

// concreteType is one named non-interface type, a dispatch candidate.
type concreteType struct {
	pkgPath string
	name    string
	typ     *types.Named
}

// Build constructs the call graph of the given program.
func Build(fset *token.FileSet, pkgs []*analysis.ProgramPackage) *Graph {
	g := &Graph{
		Fset:     fset,
		Packages: pkgs,
		byName:   make(map[string]*Node),
		bySite:   make(map[ast.Node][]*Edge),
	}

	// Pass 1: one node per declared function, and the concrete-type index
	// interface dispatch draws candidates from.
	var concrete []concreteType
	seenType := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := fn.FullName()
				if g.byName[key] != nil {
					continue
				}
				n := &Node{Fn: fn, Decl: fd, Pkg: pkg, name: key}
				g.byName[key] = n
				g.Nodes = append(g.Nodes, n)
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			key := pkg.Path + "." + name
			if seenType[key] {
				continue
			}
			seenType[key] = true
			concrete = append(concrete, concreteType{pkgPath: pkg.Path, name: name, typ: named})
		}
	}
	sort.Slice(concrete, func(i, j int) bool {
		if concrete[i].pkgPath != concrete[j].pkgPath {
			return concrete[i].pkgPath < concrete[j].pkgPath
		}
		return concrete[i].name < concrete[j].name
	})

	// Pass 2: walk every body, resolving call sites and value references.
	b := &graphBuilder{g: g, concrete: concrete}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := g.byName[fn.FullName()]
				if n.Decl != fd {
					// A second type-check run over a file already walked.
					continue
				}
				b.walk(n, pkg, fd.Body)
			}
		}
	}
	return g
}

// graphBuilder carries the per-walk state of Build's second pass.
type graphBuilder struct {
	g        *Graph
	concrete []concreteType
	litSeq   int
	// callPos marks expressions that are the operator of an enclosing call,
	// so the reference scan below them does not double-report a Ref edge.
	callPos map[ast.Node]bool
}

func (b *graphBuilder) addEdge(caller, callee *Node, site ast.Node, kind EdgeKind) {
	if caller == nil || callee == nil {
		return
	}
	e := &Edge{Caller: caller, Callee: callee, Site: site, Kind: kind}
	caller.Out = append(caller.Out, e)
	if call, ok := site.(*ast.CallExpr); ok && (kind == Static || kind == Interface) {
		b.g.bySite[call] = append(b.g.bySite[call], e)
	}
}

// walk traverses one function body, attributing edges to owner. Function
// literals become child nodes and are walked with themselves as owner.
func (b *graphBuilder) walk(owner *Node, pkg *analysis.ProgramPackage, body ast.Node) {
	if b.callPos == nil {
		b.callPos = make(map[ast.Node]bool)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			b.litSeq++
			lit := &Node{Lit: n, Pkg: pkg, name: fmt.Sprintf("%s$lit%d", owner.Name(), b.litSeq)}
			b.g.Nodes = append(b.g.Nodes, lit)
			b.addEdge(owner, lit, n, Lit)
			b.walk(lit, pkg, n.Body)
			return false
		case *ast.CallExpr:
			fun := ast.Unparen(n.Fun)
			b.callPos[fun] = true
			if sel, ok := fun.(*ast.SelectorExpr); ok {
				b.callPos[sel.Sel] = true
			}
			b.resolveCall(owner, pkg, n, fun)
			return true
		case *ast.Ident:
			if b.callPos[n] {
				return true
			}
			if fn, ok := pkg.Info.Uses[n].(*types.Func); ok {
				b.addEdge(owner, b.g.NodeOf(fn), n, Ref)
			}
			return true
		case *ast.SelectorExpr:
			if b.callPos[n] {
				return true
			}
			// A method value (x.M taken, not called): assume the holder may
			// invoke it. Interface method values fan out like dispatch.
			if sel, ok := pkg.Info.Selections[n]; ok && sel.Kind() == types.MethodVal {
				b.methodEdges(owner, n, sel, Ref)
				b.callPos[n.Sel] = true // the leaf ident repeats the object
			}
			return true
		}
		return true
	})
}

// resolveCall adds the edges of one call expression.
func (b *graphBuilder) resolveCall(owner *Node, pkg *analysis.ProgramPackage, call *ast.CallExpr, fun ast.Expr) {
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			b.addEdge(owner, b.g.NodeOf(fn), call, Static)
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal {
				b.methodEdges(owner, call, sel, Static)
			}
			// MethodExpr (T.M) resolves through Uses below; FieldVal is a
			// dynamic call through a func-typed field — unresolved.
			if sel.Kind() != types.MethodExpr {
				return
			}
		}
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			// Package-qualified call or method expression.
			b.addEdge(owner, b.g.NodeOf(fn), call, Static)
		}
	}
}

// methodEdges resolves a method selection: a Static (or Ref) edge for a
// concrete receiver, one Interface edge per implementing type otherwise.
func (b *graphBuilder) methodEdges(owner *Node, site ast.Node, sel *types.Selection, kind EdgeKind) {
	fn, ok := sel.Obj().(*types.Func)
	if !ok {
		return
	}
	iface, isIface := sel.Recv().Underlying().(*types.Interface)
	if !isIface {
		b.addEdge(owner, b.g.NodeOf(fn), site, kind)
		return
	}
	dispatchKind := Interface
	if kind == Ref {
		dispatchKind = Ref
	}
	for _, ct := range b.concrete {
		if !types.Implements(ct.typ, iface) && !types.Implements(types.NewPointer(ct.typ), iface) {
			continue
		}
		// The pointer method set is the superset; look the method up there.
		ms := types.NewMethodSet(types.NewPointer(ct.typ))
		found := ms.Lookup(fn.Pkg(), fn.Name())
		if found == nil {
			continue
		}
		impl, ok := found.Obj().(*types.Func)
		if !ok {
			continue
		}
		b.addEdge(owner, b.g.NodeOf(impl), site, dispatchKind)
	}
}
