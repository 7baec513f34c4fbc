package driver

import (
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

func baselineFindings() []Finding {
	return []Finding{
		{Analyzer: "detflow", Pos: token.Position{Filename: "/x/chip/psn.go", Line: 10, Column: 2}, Message: "tainted sink"},
		{Analyzer: "detflow", Pos: token.Position{Filename: "/x/chip/psn.go", Line: 20, Column: 2}, Message: "tainted sink"},
		{Analyzer: "maporder", Pos: token.Position{Filename: "/x/obs/reg.go", Line: 5, Column: 1}, Message: "unordered range"},
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := WriteBaseline(path, baselineFindings()); err != nil {
		t.Fatalf("WriteBaseline: %v", err)
	}
	entries, err := LoadBaseline(path)
	if err != nil {
		t.Fatalf("LoadBaseline: %v", err)
	}
	// Two classes: psn.go/detflow count 2, reg.go/maporder count 1,
	// sorted by file.
	if len(entries) != 2 {
		t.Fatalf("got %d entries, want 2: %+v", len(entries), entries)
	}
	if entries[0].File != "psn.go" || entries[0].Count != 2 {
		t.Fatalf("entry 0 = %+v, want psn.go count 2", entries[0])
	}
	if entries[1].File != "reg.go" || entries[1].Analyzer != "maporder" {
		t.Fatalf("entry 1 = %+v, want reg.go maporder", entries[1])
	}
	kept, stale := ApplyBaseline(baselineFindings(), entries)
	if len(kept) != 0 || len(stale) != 0 {
		t.Fatalf("round trip kept %d, stale %d; want 0, 0", len(kept), len(stale))
	}
}

func TestBaselineEmptyRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := WriteBaseline(path, nil); err != nil {
		t.Fatalf("WriteBaseline: %v", err)
	}
	entries, err := LoadBaseline(path)
	if err != nil {
		t.Fatalf("LoadBaseline: %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("got %d entries, want 0", len(entries))
	}
}

func TestApplyBaselineKeepsNewFindings(t *testing.T) {
	entries := []BaselineEntry{{File: "psn.go", Analyzer: "detflow", Message: "tainted sink", Count: 2}}
	extra := append(baselineFindings(), Finding{
		Analyzer: "detflow",
		Pos:      token.Position{Filename: "/x/chip/psn.go", Line: 30, Column: 2},
		Message:  "tainted sink",
	})
	kept, stale := ApplyBaseline(extra, entries)
	if len(stale) != 0 {
		t.Fatalf("stale = %+v, want none", stale)
	}
	// The third psn.go finding exceeds the budget and the maporder one was
	// never accepted: both must survive.
	if len(kept) != 2 {
		t.Fatalf("kept %d findings, want 2: %+v", len(kept), kept)
	}
}

func TestApplyBaselineReportsStale(t *testing.T) {
	entries := []BaselineEntry{
		{File: "psn.go", Analyzer: "detflow", Message: "tainted sink", Count: 5},
		{File: "gone.go", Analyzer: "floateq", Message: "== on float", Count: 1},
	}
	kept, stale := ApplyBaseline(baselineFindings(), entries)
	if len(kept) != 1 || kept[0].Analyzer != "maporder" {
		t.Fatalf("kept = %+v, want only the maporder finding", kept)
	}
	if len(stale) != 2 {
		t.Fatalf("stale = %+v, want 2 entries", stale)
	}
	for _, e := range stale {
		switch e.File {
		case "psn.go":
			if e.Count != 3 {
				t.Fatalf("psn.go stale count = %d, want 3", e.Count)
			}
		case "gone.go":
			if e.Count != 1 {
				t.Fatalf("gone.go stale count = %d, want 1", e.Count)
			}
		default:
			t.Fatalf("unexpected stale entry %+v", e)
		}
	}
}

func TestLoadBaselineRejectsMalformedEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := WriteBaseline(path, nil); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		`[{"file":"","analyzer":"x","message":"m","count":1}]`,
		`[{"file":"a.go","analyzer":"x","message":"m","count":0}]`,
		`{"not":"an array"}`,
	} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadBaseline(path); err == nil {
			t.Fatalf("LoadBaseline accepted malformed baseline %s", bad)
		}
	}
}
