package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"

	"parm/internal/analysis"
	"parm/internal/analysis/driver"
	"parm/internal/analysis/parmvet"
)

func fakeRules(names ...string) []driver.Rule {
	out := make([]driver.Rule, len(names))
	for i, n := range names {
		out[i] = driver.Rule{Analyzer: &analysis.Analyzer{Name: n}}
	}
	return out
}

func TestSelectRulesEmptyFilterKeepsAll(t *testing.T) {
	rules := fakeRules("a", "b", "c")
	got, err := selectRules(rules, "")
	if err != nil {
		t.Fatalf("selectRules: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d rules, want 3", len(got))
	}
}

func TestSelectRulesSubsetAndOrder(t *testing.T) {
	rules := fakeRules("a", "b", "c")
	got, err := selectRules(rules, "c, a")
	if err != nil {
		t.Fatalf("selectRules: %v", err)
	}
	if len(got) != 2 || got[0].Analyzer.Name != "c" || got[1].Analyzer.Name != "a" {
		t.Fatalf("got %v, want [c a]", names(got))
	}
}

func TestSelectRulesUnknownName(t *testing.T) {
	_, err := selectRules(fakeRules("b", "a"), "nosuch")
	if err == nil {
		t.Fatal("expected error for unknown analyzer name")
	}
	// The error must list the valid names, sorted, so a typo is self-serve.
	if !strings.Contains(err.Error(), "valid names: a, b") {
		t.Fatalf("error %q does not list the valid analyzer names", err)
	}
}

func TestSelectRulesAllCommas(t *testing.T) {
	if _, err := selectRules(fakeRules("a"), ",,"); err == nil {
		t.Fatal("expected error for a filter selecting nothing")
	}
}

func names(rules []driver.Rule) []string {
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = r.Analyzer.Name
	}
	return out
}

func sampleFindings() []driver.Finding {
	return []driver.Finding{
		{
			Analyzer: "errsink",
			Pos:      token.Position{Filename: "a.go", Line: 3, Column: 7},
			Message:  "error dropped",
		},
		{
			Analyzer: "floateq",
			Pos:      token.Position{Filename: "b.go", Line: 11, Column: 2},
			Message:  "exact floating-point comparison",
		},
	}
}

func TestWriteFindingsPlain(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFindings(&buf, sampleFindings(), false); err != nil {
		t.Fatalf("writeFindings: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	if want := "a.go:3:7: error dropped (errsink)"; lines[0] != want {
		t.Fatalf("line 0 = %q, want %q", lines[0], want)
	}
}

func TestWriteFindingsJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFindings(&buf, sampleFindings(), true); err != nil {
		t.Fatalf("writeFindings: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var jf jsonFinding
	if err := json.Unmarshal([]byte(lines[0]), &jf); err != nil {
		t.Fatalf("line 0 is not valid JSON: %v\n%s", err, lines[0])
	}
	want := jsonFinding{File: "a.go", Line: 3, Col: 7, Analyzer: "errsink", Message: "error dropped"}
	if jf != want {
		t.Fatalf("got %+v, want %+v", jf, want)
	}
}

func TestWriteFindingsEmptyWritesNothing(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFindings(&buf, nil, true); err != nil {
		t.Fatalf("writeFindings: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("expected no output, got %q", buf.String())
	}
}

func TestRunRejectsUnknownAnalyzer(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-run", "nosuch"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "unknown analyzer") {
		t.Fatalf("stderr missing explanation:\n%s", errOut.String())
	}
	for _, r := range parmvet.Rules() {
		if !strings.Contains(errOut.String(), r.Analyzer.Name) {
			t.Fatalf("stderr does not list analyzer %q among the valid names:\n%s", r.Analyzer.Name, errOut.String())
		}
	}
}

func TestSuiteHasFourAnalyzers(t *testing.T) {
	want := map[string]bool{
		"det": true, "unitsafe": true, "floateq": true, "errsink": true,
	}
	rules := parmvet.Rules()
	if len(rules) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(rules), len(want))
	}
	for _, r := range rules {
		if !want[r.Analyzer.Name] {
			t.Fatalf("unexpected analyzer %q in suite", r.Analyzer.Name)
		}
	}
}
