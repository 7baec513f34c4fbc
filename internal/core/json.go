package core

import (
	"encoding/json"
	"io"
)

// metricsJSON is the machine-readable form of a run's metrics
// (cmd/parmsim -json).
type metricsJSON struct {
	Framework         string        `json:"framework"`
	Workload          string        `json:"workload"`
	TotalTimeS        float64       `json:"total_time_s"`
	PeakPSN           float64       `json:"peak_psn"`
	AvgPSN            float64       `json:"avg_psn"`
	Completed         int           `json:"completed"`
	Dropped           int           `json:"dropped"`
	Unfinished        int           `json:"unfinished"`
	TotalVEs          int           `json:"total_ves"`
	TotalEnergyJ      float64       `json:"total_energy_j"`
	MeanPacketLatency float64       `json:"mean_packet_latency_cycles"`
	Apps              []outcomeJSON `json:"apps"`
	// Domain-solve cache counters, present only when the run collected them
	// (Engine.CollectCacheStats) so default output stays unchanged.
	PDNCache *pdnCacheJSON `json:"pdn_cache,omitempty"`
}

type pdnCacheJSON struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Clears  uint64 `json:"clears"`
	Evicted uint64 `json:"evicted"`
	Entries int    `json:"entries"`
}

type outcomeJSON struct {
	ID          int     `json:"id"`
	Bench       string  `json:"bench"`
	State       string  `json:"state"`
	Vdd         float64 `json:"vdd"`
	DoP         int     `json:"dop"`
	WaitS       float64 `json:"wait_s"`
	TurnaroundS float64 `json:"turnaround_s"`
	VEs         int     `json:"ves"`
	EnergyJ     float64 `json:"energy_j"`
	DeadlineMet bool    `json:"deadline_met"`
}

// WriteJSON emits the metrics as indented JSON.
func (m *Metrics) WriteJSON(w io.Writer) error {
	doc := metricsJSON{
		Framework:         m.Framework,
		Workload:          m.Workload,
		TotalTimeS:        m.TotalTime,
		PeakPSN:           m.PeakPSN,
		AvgPSN:            m.AvgPSN,
		Completed:         m.Completed,
		Dropped:           m.Dropped,
		Unfinished:        m.Unfinished,
		TotalVEs:          m.TotalVEs,
		TotalEnergyJ:      m.TotalEnergyJ,
		MeanPacketLatency: m.MeanPacketLatency,
	}
	if m.PDNCache != nil {
		doc.PDNCache = &pdnCacheJSON{
			Hits:    m.PDNCache.Hits,
			Misses:  m.PDNCache.Misses,
			Clears:  m.PDNCache.Clears,
			Evicted: m.PDNCache.Evicted,
			Entries: m.PDNCache.Entries,
		}
	}
	for _, o := range m.Apps {
		oj := outcomeJSON{
			ID:          o.App.ID,
			Bench:       o.App.Bench.Name,
			State:       o.State.String(),
			Vdd:         float64(o.Vdd),
			DoP:         o.DoP,
			WaitS:       o.WaitTime,
			VEs:         o.VEs,
			EnergyJ:     o.EnergyJ,
			DeadlineMet: o.DeadlineMet,
		}
		if o.State == StateCompleted {
			oj.TurnaroundS = o.CompletedAt - o.App.Arrival
		}
		doc.Apps = append(doc.Apps, oj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
