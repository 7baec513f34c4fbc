// Package analysistest runs an analyzer over a fixture directory and checks
// its diagnostics against `// want` expectations, mirroring the
// golang.org/x/tools/go/analysis/analysistest contract on the standard
// library alone.
//
// Expectations are trailing comments on the line the diagnostic anchors to:
//
//	for k := range m { // want `range over map`
//
// The backquoted text is a regular expression matched against the
// diagnostic message. A line may carry several `// want` comments; every
// expectation must be matched by exactly one diagnostic and vice versa.
package analysistest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"parm/internal/analysis"
)

// wantRe extracts the expectation pattern from a `// want` comment.
var wantRe = regexp.MustCompile("// want `([^`]*)`")

// expectation is one `// want` pattern with match bookkeeping.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// collectWants scans one file's source for `// want` comments.
func collectWants(t *testing.T, path string, src []byte) []*expectation {
	t.Helper()
	var expects []*expectation
	for i, line := range strings.Split(string(src), "\n") {
		for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("analysistest: %s:%d: bad want pattern %q: %v", path, i+1, m[1], err)
			}
			expects = append(expects, &expectation{file: path, line: i + 1, pattern: re})
		}
	}
	return expects
}

// diff matches diagnostics against expectations one-to-one, reporting
// unexpected diagnostics and unmatched expectations through t.
func diff(t *testing.T, fset *token.FileSet, got []analysis.Diagnostic, expects []*expectation) {
	t.Helper()
	sort.Slice(got, func(i, j int) bool { return got[i].Pos < got[j].Pos })
	for _, d := range got {
		pos := fset.Position(d.Pos)
		ok := false
		for _, e := range expects {
			if e.matched || e.file != pos.Filename || e.line != pos.Line {
				continue
			}
			if e.pattern.MatchString(d.Message) {
				e.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.pattern)
		}
	}
}

// Run parses every .go file directly under dir as one package, type-checks
// it, applies the analyzer, and diffs diagnostics against the `// want`
// comments. Failures are reported through t.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var expects []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		files = append(files, f)
		expects = append(expects, collectWants(t, path, src)...)
	}
	if len(files) == 0 {
		t.Fatalf("analysistest: no fixture files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(files[0].Name.Name, fset, files, info)
	if err != nil {
		t.Fatalf("analysistest: type-checking %s: %v", dir, err)
	}

	var got []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Report:    func(d analysis.Diagnostic) { got = append(got, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("analysistest: %s: %v", a.Name, err)
	}
	diff(t, fset, got, expects)
}
