package core

import (
	"parm/internal/appmodel"
	"parm/internal/pdn"
	"parm/internal/power"
)

// AppState is the final disposition of an application.
type AppState int

// Application outcomes.
const (
	// StateCompleted means the app ran to completion on the CMP.
	StateCompleted AppState = iota
	// StateDropped means Algorithm 1 dropped the app (deadline infeasible
	// or unmappable before its deadline), paper §4.1.
	StateDropped
	// StateUnfinished means the simulation hit its safety time cap first.
	StateUnfinished
)

// String returns "completed", "dropped" or "unfinished".
func (s AppState) String() string {
	switch s {
	case StateCompleted:
		return "completed"
	case StateDropped:
		return "dropped"
	default:
		return "unfinished"
	}
}

// AppOutcome records how one application fared.
type AppOutcome struct {
	App   *appmodel.App
	State AppState
	// Vdd and DoP are the operating point chosen at mapping (zero when
	// never mapped).
	Vdd power.Volts
	DoP int
	// MappedAt and CompletedAt are absolute times in seconds.
	MappedAt, CompletedAt float64
	// WaitTime is the queue time before mapping.
	WaitTime float64
	// VEs counts voltage emergencies charged to the app.
	VEs int
	// DeadlineMet reports whether completion beat the absolute deadline.
	DeadlineMet bool
	// AvgPacketLatency is the mean NoC packet latency in cycles measured
	// for the app's flows at mapping time.
	AvgPacketLatency float64
	// EnergyJ is the energy the app consumed in joules (reserved power
	// times residence time; zero when never mapped).
	EnergyJ float64
}

// Metrics aggregates one simulation run, providing the quantities of the
// paper's Figs. 6-8.
type Metrics struct {
	Framework string
	Workload  string

	// TotalTime is when the last application left the system (Fig. 6).
	TotalTime float64
	// PeakPSN is the maximum PSN fraction observed at any tile (Fig. 7).
	PeakPSN float64
	// AvgPSN is the time-average of the active domains' average PSN
	// (Fig. 7).
	AvgPSN float64
	// Completed and Dropped count final app states (Fig. 8).
	Completed, Dropped, Unfinished int
	// TotalVEs counts voltage emergencies across the run.
	TotalVEs int
	// Samples is the number of PSN samples taken.
	Samples int
	// MeanPacketLatency averages the per-app NoC packet latency over
	// mapped apps.
	MeanPacketLatency float64
	// TotalEnergyJ sums the energy consumed by completed applications.
	TotalEnergyJ float64

	Apps []AppOutcome

	// PDNCache optionally carries the run's domain-solve cache counters
	// (Engine.CollectCacheStats). It stays nil unless the caller asks for
	// it: the split is deterministic but describes the measurement cache
	// rather than the simulated system, so it is kept out of the default
	// results the engine golden digests cover and serialized only when
	// present.
	PDNCache *pdn.CacheStats
}
