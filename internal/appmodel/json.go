package appmodel

import (
	"encoding/json"
	"fmt"
	"io"
)

// workloadJSON is the on-disk form of a workload: enough to regenerate the
// exact sequence (benchmark names, arrivals, deadlines). Graphs and
// profiles are re-derived deterministically from the benchmark names.
type workloadJSON struct {
	Kind string    `json:"kind"`
	Apps []appJSON `json:"apps"`
}

type appJSON struct {
	ID          int     `json:"id"`
	Bench       string  `json:"bench"`
	Arrival     float64 `json:"arrival_s"`
	RelDeadline float64 `json:"deadline_s"`
}

// WriteJSON serializes the workload so a run can be archived and replayed
// exactly (cmd/parmsim -save/-load).
func (w *Workload) WriteJSON(out io.Writer) error {
	doc := workloadJSON{Kind: w.Kind.String()}
	for _, a := range w.Apps {
		doc.Apps = append(doc.Apps, appJSON{
			ID: a.ID, Bench: a.Bench.Name, Arrival: a.Arrival, RelDeadline: a.RelDeadline,
		})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ReadWorkloadJSON reconstructs a workload written by WriteJSON. It
// validates benchmark names, timing fields, and app IDs: unique and not
// negative (the chip reserves -1 for an unoccupied domain).
func ReadWorkloadJSON(in io.Reader) (*Workload, error) {
	var doc workloadJSON
	if err := json.NewDecoder(in).Decode(&doc); err != nil {
		return nil, fmt.Errorf("appmodel: decoding workload: %w", err)
	}
	w := &Workload{}
	switch doc.Kind {
	case WorkloadCompute.String():
		w.Kind = WorkloadCompute
	case WorkloadComm.String():
		w.Kind = WorkloadComm
	case WorkloadMixed.String():
		w.Kind = WorkloadMixed
	default:
		return nil, fmt.Errorf("appmodel: unknown workload kind %q", doc.Kind)
	}
	if len(doc.Apps) == 0 {
		return nil, fmt.Errorf("appmodel: workload has no applications")
	}
	seen := map[int]bool{}
	for _, aj := range doc.Apps {
		if aj.ID < 0 {
			return nil, fmt.Errorf("appmodel: negative app ID %d", aj.ID)
		}
		if seen[aj.ID] {
			return nil, fmt.Errorf("appmodel: duplicate app ID %d", aj.ID)
		}
		seen[aj.ID] = true
		b, err := BenchmarkByName(aj.Bench)
		if err != nil {
			return nil, err
		}
		if aj.Arrival < 0 || aj.RelDeadline <= 0 {
			return nil, fmt.Errorf("appmodel: app %d has invalid timing (arrival %g, deadline %g)",
				aj.ID, aj.Arrival, aj.RelDeadline)
		}
		w.Apps = append(w.Apps, &App{
			ID: aj.ID, Bench: b, Arrival: aj.Arrival, RelDeadline: aj.RelDeadline,
		})
	}
	return w, nil
}
