package appmodel

import (
	"strings"
	"testing"
)

func TestWorkloadJSONRoundTrip(t *testing.T) {
	w, err := Generate(WorkloadConfig{
		Kind: WorkloadComm, NumApps: 6, ArrivalGap: 0.1, Node: np7(), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := w.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWorkloadJSON(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != w.Kind || len(got.Apps) != len(w.Apps) {
		t.Fatalf("round trip lost structure: %v/%d", got.Kind, len(got.Apps))
	}
	for i := range w.Apps {
		a, b := w.Apps[i], got.Apps[i]
		if a.ID != b.ID || a.Bench.Name != b.Bench.Name ||
			a.Arrival != b.Arrival || a.RelDeadline != b.RelDeadline {
			t.Errorf("app %d differs after round trip", i)
		}
	}
}

func TestReadWorkloadJSONValidation(t *testing.T) {
	cases := map[string]string{
		"bad json":      `{`,
		"unknown kind":  `{"kind":"sideways","apps":[{"id":0,"bench":"fft","arrival_s":0,"deadline_s":0.1}]}`,
		"no apps":       `{"kind":"mixed","apps":[]}`,
		"unknown bench": `{"kind":"mixed","apps":[{"id":0,"bench":"doom","arrival_s":0,"deadline_s":0.1}]}`,
		"negative id":   `{"kind":"mixed","apps":[{"id":-1,"bench":"fft","arrival_s":0,"deadline_s":0.1}]}`,
		"duplicate id":  `{"kind":"mixed","apps":[{"id":0,"bench":"fft","arrival_s":0,"deadline_s":0.1},{"id":0,"bench":"fft","arrival_s":0.1,"deadline_s":0.1}]}`,
		"bad deadline":  `{"kind":"mixed","apps":[{"id":0,"bench":"fft","arrival_s":0,"deadline_s":0}]}`,
		"negative time": `{"kind":"mixed","apps":[{"id":0,"bench":"fft","arrival_s":-1,"deadline_s":0.1}]}`,
	}
	for name, doc := range cases {
		if _, err := ReadWorkloadJSON(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// A loaded workload drives the same deterministic graphs as a generated
// one: deadlines and names are sufficient state.
func TestLoadedWorkloadEquivalentGraphs(t *testing.T) {
	w, err := Generate(WorkloadConfig{
		Kind: WorkloadMixed, NumApps: 3, ArrivalGap: 0.1, Node: np7(), Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := w.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWorkloadJSON(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Apps {
		g1, g2 := w.Apps[i].Graph(16), got.Apps[i].Graph(16)
		if len(g1.Edges) != len(g2.Edges) {
			t.Fatalf("app %d: graphs differ after load", i)
		}
		for k := range g1.Edges {
			if g1.Edges[k] != g2.Edges[k] {
				t.Fatalf("app %d edge %d differs", i, k)
			}
		}
	}
}
