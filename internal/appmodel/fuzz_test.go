package appmodel

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadWorkloadJSON pins the workload input boundary: any document
// either fails with an error or yields apps with finite, non-negative
// arrivals and finite, positive deadlines that survive a WriteJSON →
// ReadWorkloadJSON round trip bit for bit. It must never panic.
func FuzzReadWorkloadJSON(f *testing.F) {
	w, err := Generate(WorkloadConfig{
		Kind: WorkloadMixed, NumApps: 3, ArrivalGap: 0.1, Node: np7(), Seed: 5,
	})
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := w.WriteJSON(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add(`{"kind":"compute-intensive","apps":[{"id":0,"bench":"fft","arrival_s":0,"deadline_s":0.1}]}`)
	f.Add(`{"kind":"mixed","apps":[{"id":0,"bench":"fft","arrival_s":-0,"deadline_s":1e-300}]}`)
	f.Add(`{"kind":"mixed","apps":[{"id":0,"bench":"fft","arrival_s":1e400,"deadline_s":0.1}]}`)

	f.Fuzz(func(t *testing.T, doc string) {
		got, err := ReadWorkloadJSON(strings.NewReader(doc))
		if err != nil {
			return
		}
		for _, a := range got.Apps {
			if math.IsInf(a.Arrival, 0) || math.IsNaN(a.Arrival) || a.Arrival < 0 {
				t.Fatalf("app %d: accepted arrival %g", a.ID, a.Arrival)
			}
			if math.IsInf(a.RelDeadline, 0) || math.IsNaN(a.RelDeadline) || a.RelDeadline <= 0 {
				t.Fatalf("app %d: accepted deadline %g", a.ID, a.RelDeadline)
			}
		}
		var buf bytes.Buffer
		if err := got.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON of an accepted workload: %v", err)
		}
		again, err := ReadWorkloadJSON(&buf)
		if err != nil {
			t.Fatalf("re-reading WriteJSON output: %v", err)
		}
		if again.Kind != got.Kind || len(again.Apps) != len(got.Apps) {
			t.Fatalf("round trip changed kind or length: %v/%d → %v/%d",
				got.Kind, len(got.Apps), again.Kind, len(again.Apps))
		}
		for i, a := range got.Apps {
			b := again.Apps[i]
			if a.ID != b.ID || a.Bench.Name != b.Bench.Name ||
				math.Float64bits(a.Arrival) != math.Float64bits(b.Arrival) ||
				math.Float64bits(a.RelDeadline) != math.Float64bits(b.RelDeadline) {
				t.Fatalf("app %d changed in round trip: %+v → %+v", i, *a, *b)
			}
		}
	})
}
