// Command parmvet is the project's static-analysis suite: four analyzers
// that enforce the invariants the PARM measurement pipeline's
// bit-identical-metrics guarantee rests on and that no test observes (see
// DESIGN.md §7), including det, which flags every nondeterminism source
// outside internal/analysis (§7.4).
//
// Usage:
//
//	go run ./cmd/parmvet [-json] [-run analyzer,...] [packages]
//
// It prints findings sorted by (file, line, column, analyzer), one per line
// in file:line:col form (or, with -json, one JSON object per line), and
// exits nonzero when any analyzer fires. -run restricts the suite to a
// comma-separated subset of analyzers.
// Suppressions are //parm:det (with a reason), //parm:floateq,
// //parm:unitless and //parm:errok comments on or directly above the
// flagged line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"parm/internal/analysis/driver"
	"parm/internal/analysis/parmvet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI body: it parses flags, runs the (possibly
// filtered) suite, and returns the process exit code — 0 clean, 1 findings,
// 2 usage or load error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("parmvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "print findings as one JSON object per line")
	runFilter := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	fs.Usage = func() {
		fprintf(stderr, "usage: parmvet [-json] [-run analyzer,...] [packages]\n\n")
		fprintf(stderr, "Analyzers:\n")
		for _, r := range parmvet.Rules() {
			fprintf(stderr, "  %-10s %s\n", r.Analyzer.Name, r.Analyzer.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rules, err := selectRules(parmvet.Rules(), *runFilter)
	if err != nil {
		fprintf(stderr, "parmvet: %v\n", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := driver.Run(patterns, rules)
	if err != nil {
		fprintf(stderr, "parmvet: %v\n", err)
		return 2
	}
	// The driver returns findings sorted, but re-assert the emission
	// contract here: both outputs promise (file, line, column, analyzer).
	driver.Sort(findings)
	if err := writeFindings(stdout, findings, *jsonOut); err != nil {
		fprintf(stderr, "parmvet: %v\n", err)
		return 2
	}
	if len(findings) > 0 {
		fprintf(stderr, "parmvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// selectRules filters the suite down to the comma-separated analyzer names
// in filter; an empty filter keeps every rule, an unknown name is an error.
func selectRules(rules []driver.Rule, filter string) ([]driver.Rule, error) {
	if filter == "" {
		return rules, nil
	}
	byName := make(map[string]driver.Rule, len(rules))
	for _, r := range rules {
		byName[r.Analyzer.Name] = r
	}
	var out []driver.Rule
	for _, name := range strings.Split(filter, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		r, ok := byName[name]
		if !ok {
			valid := make([]string, 0, len(byName))
			for n := range byName {
				valid = append(valid, n)
			}
			sort.Strings(valid)
			return nil, fmt.Errorf("unknown analyzer %q; valid names: %s", name, strings.Join(valid, ", "))
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-run %q selects no analyzers", filter)
	}
	return out, nil
}

// jsonFinding is the -json wire form: one object per line.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// writeFindings renders findings to w, one per line, in the plain
// file:line:col form or as JSON objects.
func writeFindings(w io.Writer, findings []driver.Finding, asJSON bool) error {
	enc := json.NewEncoder(w)
	for _, f := range findings {
		if asJSON {
			jf := jsonFinding{
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Analyzer: f.Analyzer,
				Message:  f.Message,
			}
			if err := enc.Encode(jf); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintln(w, f); err != nil {
			return err
		}
	}
	return nil
}

// fprintf writes best-effort CLI chrome; a failed write to a closed stderr
// pipe is not actionable.
func fprintf(w io.Writer, format string, args ...interface{}) {
	//parm:errok
	fmt.Fprintf(w, format, args...)
}
