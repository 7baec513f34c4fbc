package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// The ring keeps the newest decisions, counts overwrites, and returns
// oldest-first.
func TestDecisionLogRing(t *testing.T) {
	l := NewDecisionLog(3)
	for i := 0; i < 5; i++ {
		l.Record(Decision{App: i, Outcome: "mapped"})
	}
	if n := len(l.Decisions()); n != 3 {
		t.Errorf("%d decisions buffered, want 3", n)
	}
	if l.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", l.Dropped())
	}
	ds := l.Decisions()
	for i, want := range []int{2, 3, 4} {
		if ds[i].App != want {
			t.Errorf("decision %d is app %d, want %d", i, ds[i].App, want)
		}
	}
}

// WriteJSON emits the documented schema; empty and nil logs produce an
// empty decisions array, not null.
func TestDecisionLogWriteJSON(t *testing.T) {
	l := NewDecisionLog(4)
	l.Record(Decision{
		TS: 0.25, App: 1, Bench: "ferret", Outcome: "dropped",
		Candidates: 12, RejDeadline: 7, RejBudget: 3, RejRegion: 2, WaitS: 0.1,
	})
	l.Record(Decision{
		TS: 0.5, App: 2, Outcome: "mapped", Candidates: 4,
		Vdd: 0.9, DoP: 4, Domains: []int{1, 2}, WaitS: 0,
	})
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Dropped   uint64     `json:"dropped"`
		Decisions []Decision `json:"decisions"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("decisions JSON does not parse: %v\n%s", err, buf.String())
	}
	if len(doc.Decisions) != 2 {
		t.Fatalf("round-tripped %d decisions, want 2", len(doc.Decisions))
	}
	d := doc.Decisions[0]
	if d.Outcome != "dropped" || d.Candidates != 12 || d.RejDeadline != 7 || d.Bench != "ferret" {
		t.Errorf("decision 0 round-trip mismatch: %+v", d)
	}
	if got := doc.Decisions[1]; got.Vdd != 0.9 || got.DoP != 4 || len(got.Domains) != 2 {
		t.Errorf("mapped decision lost operating point: %+v", got)
	}
	// Mapped-only fields are omitted for non-mapped outcomes.
	if bytes.Contains(buf.Bytes(), []byte(`"vdd": 0,`)) {
		t.Errorf("zero vdd not omitted:\n%s", buf.String())
	}

	for _, tc := range []struct {
		name string
		log  *DecisionLog
	}{{"nil", nil}, {"empty", NewDecisionLog(2)}} {
		name, log := tc.name, tc.log
		var b bytes.Buffer
		if err := log.WriteJSON(&b); err != nil {
			t.Fatalf("%s log WriteJSON: %v", name, err)
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(b.Bytes(), &raw); err != nil {
			t.Fatalf("%s log JSON does not parse: %v", name, err)
		}
		if string(raw["decisions"]) == "null" {
			t.Errorf("%s log emits null decisions, want []", name)
		}
	}
}

// Nil logs absorb the full API.
func TestDecisionLogNil(t *testing.T) {
	var l *DecisionLog
	l.Record(Decision{App: 1})
	if l.Dropped() != 0 || l.Decisions() != nil {
		t.Error("nil DecisionLog accessors not empty")
	}
}
