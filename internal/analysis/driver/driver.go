// Package driver loads, type-checks, and analyzes the packages of this
// module without golang.org/x/tools: package metadata comes from
// `go list -json`, module packages are parsed and type-checked in
// dependency order, and standard-library imports are resolved from $GOROOT
// source via go/importer's "source" mode (fully offline).
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"

	"parm/internal/analysis"
)

// listedPackage is the slice of `go list -json` output the loader consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
}

// Package is one loaded, type-checked module package.
type Package struct {
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Analyzable is the subset of Files analyzers run over: generated files
	// participate in type checking but are nobody's lint problem.
	Analyzable []*ast.File
}

// Rule binds an analyzer to the package import paths it applies to. A nil
// Match runs the analyzer on every loaded package.
type Rule struct {
	Analyzer *analysis.Analyzer
	Match    func(pkgPath string) bool
}

// Finding is one diagnostic with its origin resolved.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// LoadDir enumerates and type-checks the module packages named by patterns
// (e.g. "./..."), resolved relative to dir (the process working directory
// when dir is empty), returning them in dependency order.
func LoadDir(fset *token.FileSet, dir string, patterns []string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	byPath := make(map[string]*listedPackage, len(listed))
	for _, lp := range listed {
		byPath[lp.ImportPath] = lp
	}

	// Type-check in topological order so every module import is resolved
	// before its importers. Standard-library imports go to the source
	// importer, which parses $GOROOT/src on demand.
	checked := make(map[string]*Package, len(listed))
	std := importer.ForCompiler(fset, "source", nil)
	imp := &moduleImporter{module: checked, byPath: byPath, std: std, fset: fset}

	var order []string
	seen := make(map[string]bool, len(listed))
	var visit func(path string) error
	visit = func(path string) error {
		if seen[path] {
			return nil
		}
		seen[path] = true
		lp := byPath[path]
		for _, dep := range lp.Imports {
			if _, ok := byPath[dep]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		order = append(order, path)
		return nil
	}
	paths := make([]string, 0, len(listed))
	for _, lp := range listed {
		paths = append(paths, lp.ImportPath)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}

	var out []*Package
	for _, path := range order {
		pkg, err := imp.check(path)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// moduleImporter resolves imports during type checking: module packages from
// the checked set, everything else from the standard library source tree.
type moduleImporter struct {
	module map[string]*Package
	byPath map[string]*listedPackage
	std    types.Importer
	fset   *token.FileSet
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.module[path]; ok {
		return pkg.Types, nil
	}
	if _, ok := m.byPath[path]; ok {
		// A module dependency outside the loaded pattern set: check it now.
		pkg, err := m.check(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return m.std.Import(path)
}

// check parses and type-checks one listed module package.
func (m *moduleImporter) check(path string) (*Package, error) {
	if pkg, ok := m.module[path]; ok {
		return pkg, nil
	}
	lp, ok := m.byPath[path]
	if !ok {
		return nil, fmt.Errorf("driver: package %s not listed", path)
	}
	files := make([]*ast.File, 0, len(lp.GoFiles))
	analyzable := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		fullPath := filepath.Join(lp.Dir, name)
		src, err := os.ReadFile(fullPath)
		if err != nil {
			return nil, fmt.Errorf("driver: reading %s: %w", fullPath, err)
		}
		// Ignore-tagged files (helper scripts, codegen drivers) are not part
		// of the build; skip before parsing so a syntax error in one cannot
		// break the whole load.
		if hasIgnoreConstraint(src) {
			continue
		}
		f, err := parser.ParseFile(m.fset, fullPath, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		// Generated files still type-check (handwritten code may reference
		// their symbols) but are excluded from analysis.
		if !ast.IsGenerated(f) {
			analyzable = append(analyzable, f)
		}
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: m}
	tpkg, err := conf.Check(path, m.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("driver: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Files: files, Types: tpkg, Info: info, Analyzable: analyzable}
	m.module[path] = pkg
	return pkg, nil
}

// hasIgnoreConstraint reports whether the file header carries a build
// constraint that keeps it out of every ordinary build — the
// `//go:build ignore` idiom (or its legacy `// +build ignore` spelling).
// The scan is textual, restricted to the pre-package header, so it works on
// files that do not parse.
func hasIgnoreConstraint(src []byte) bool {
	for _, line := range bytes.Split(src, []byte("\n")) {
		text := string(bytes.TrimRight(line, "\r"))
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) > 0 && !bytes.HasPrefix(trimmed, []byte("//")) {
			// First non-comment, non-blank line: constraints can only appear
			// above it (the package clause or stray text).
			return false
		}
		if !constraint.IsGoBuild(text) && !constraint.IsPlusBuild(text) {
			continue
		}
		expr, err := constraint.Parse(text)
		if err != nil {
			continue
		}
		// Evaluate with every ordinary tag satisfied and only "ignore"
		// unset: false means the file exists solely behind the ignore tag.
		if !expr.Eval(func(tag string) bool { return tag != "ignore" }) {
			return true
		}
	}
	return false
}

// Run loads the packages named by patterns and applies every matching rule,
// returning all findings sorted by position.
func Run(patterns []string, rules []Rule) ([]Finding, error) {
	return RunDir("", patterns, rules)
}

// RunDir is Run with the package patterns resolved relative to dir. Each
// analyzer runs on every package its rule matches.
func RunDir(dir string, patterns []string, rules []Rule) ([]Finding, error) {
	fset := token.NewFileSet()
	pkgs, err := LoadDir(fset, dir, patterns)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, rule := range rules {
		for _, pkg := range pkgs {
			if rule.Match != nil && !rule.Match(pkg.Path) {
				continue
			}
			a := rule.Analyzer
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Analyzable,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			pass.Report = func(d analysis.Diagnostic) {
				findings = append(findings, Finding{
					Analyzer: a.Name,
					Pos:      fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("driver: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	Sort(findings)
	return findings, nil
}

// Sort orders findings by (file, line, column, analyzer) — the emission
// order both the text and JSON outputs promise.
func Sort(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// goList shells out to `go list -json` for package metadata; the go
// toolchain is the one component the environment guarantees. A non-empty
// dir resolves the patterns inside that directory's module.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("driver: go list: %v: %s", err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listedPackage
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("driver: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, &lp)
	}
	return pkgs, nil
}
