// Package analysis is a self-contained, stdlib-only re-implementation of
// the golang.org/x/tools/go/analysis core: an Analyzer runs over one
// type-checked package at a time and reports position-anchored diagnostics.
//
// The build environment for this repository is hermetic (no module proxy),
// so the x/tools dependency is unavailable; this package provides the small
// slice of its API that the parmvet suite needs. The shapes intentionally
// mirror x/tools so the analyzers can migrate to the real framework by
// swapping imports if the dependency ever becomes available.
//
// Project-specific suppression comments are plain line comments of the form
//
//	//parm:<name>
//
// placed on the flagged line or the line directly above it (the directive
// style of //go:noinline). Directives(f) extracts them; analyzers consult
// Suppressed before reporting.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check over one package at a time.
type Analyzer struct {
	// Name is the short identifier used in diagnostics and suppression
	// documentation, e.g. "det".
	Name string
	// Doc is the one-paragraph description shown by `parmvet help`.
	Doc string
	// Run executes the check on one package, reporting findings through
	// pass.Report.
	Run func(*Pass) error
}

// Pass carries one analyzed package to an Analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records one diagnostic. The driver supplies it.
	Report func(Diagnostic)

	// directives caches per-file suppression directives, built lazily.
	directives map[*ast.File]map[int][]string
}

// Diagnostic is one finding, anchored at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf formats and records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// DirectivePrefix introduces parm suppression comments.
const DirectivePrefix = "//parm:"

// Directives returns the suppression directives of file f keyed by the line
// they annotate: a directive on line n annotates both line n (trailing
// comment) and line n+1 (comment on its own line above the statement).
func (p *Pass) Directives(f *ast.File) map[int][]string {
	if p.directives == nil {
		p.directives = make(map[*ast.File]map[int][]string)
	}
	if d, ok := p.directives[f]; ok {
		return d
	}
	d := make(map[int][]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, DirectivePrefix) {
				continue
			}
			name := strings.TrimPrefix(c.Text, DirectivePrefix)
			if i := strings.IndexAny(name, " \t"); i >= 0 {
				name = name[:i]
			}
			line := p.Fset.Position(c.Pos()).Line
			d[line] = append(d[line], name)
			d[line+1] = append(d[line+1], name)
		}
	}
	p.directives[f] = d
	return d
}

// Suppressed reports whether a //parm:<name> directive annotates the line of
// pos in file f.
func (p *Pass) Suppressed(f *ast.File, pos token.Pos, name string) bool {
	for _, n := range p.Directives(f)[p.Fset.Position(pos).Line] {
		if n == name {
			return true
		}
	}
	return false
}

// IsFloat reports whether t's underlying type has a floating-point or
// complex basic kind.
func IsFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}
