package core

import (
	"fmt"
	"io"
)

// TracePoint is one PSN sample in a run's time series.
type TracePoint struct {
	// T is the simulation time in seconds.
	T float64
	// ChipPeak is the maximum tile PSN fraction at this sample.
	ChipPeak float64
	// ActiveAvg is the mean PSN over active domains.
	ActiveAvg float64
	// Running is the number of mapped applications.
	Running int
	// Queued is the service-queue length.
	Queued int
	// BudgetUsed is the reserved dark-silicon power in watts.
	BudgetUsed float64
	// DomainPeak holds the per-domain peak PSN fractions.
	DomainPeak []float64
}

// Trace records the PSN/occupancy time series of a run when enabled via
// Engine.EnableTrace.
type Trace struct {
	Points []TracePoint
	// NumDomains fixes the per-domain column count of the CSV schema, so an
	// empty trace emits the same header a populated one would.
	// Engine.EnableTrace sets it from the chip.
	NumDomains int
}

// WriteCSV dumps the trace in CSV form: one row per sample with the
// chip-level aggregates followed by per-domain peaks. The header schema is
// identical whether or not any samples were recorded.
func (tr *Trace) WriteCSV(w io.Writer) error {
	domains := tr.NumDomains
	if len(tr.Points) > 0 {
		domains = len(tr.Points[0].DomainPeak)
	}
	header := "t_s,chipPeak,activeAvg,running,queued,budgetW"
	for d := 0; d < domains; d++ {
		header += fmt.Sprintf(",dom%d", d)
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, p := range tr.Points {
		if _, err := fmt.Fprintf(w, "%.6f,%.5f,%.5f,%d,%d,%.2f",
			p.T, p.ChipPeak, p.ActiveAvg, p.Running, p.Queued, p.BudgetUsed); err != nil {
			return err
		}
		for _, dp := range p.DomainPeak {
			if _, err := fmt.Fprintf(w, ",%.5f", dp); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// EnableTrace turns on time-series recording for the next Run. The returned
// trace is filled in as the simulation progresses.
func (e *Engine) EnableTrace() *Trace {
	e.trace = &Trace{NumDomains: e.chip.NumDomains()}
	return e.trace
}

// recordTrace appends a sample to the enabled trace.
func (e *Engine) recordTrace(chipPeak, activeAvg float64, domainPeak []float64) {
	if e.trace == nil {
		return
	}
	dp := make([]float64, len(domainPeak))
	copy(dp, domainPeak)
	e.trace.Points = append(e.trace.Points, TracePoint{
		T:          e.now,
		ChipPeak:   chipPeak,
		ActiveAvg:  activeAvg,
		Running:    len(e.running),
		Queued:     len(e.queue),
		BudgetUsed: float64(e.chip.Budget.Used()),
		DomainPeak: dp,
	})
}
