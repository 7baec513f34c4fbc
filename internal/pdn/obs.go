// Telemetry hooks for the solver layer. Instrumentation is opt-in and
// behavior-neutral: registration happens once at startup (Instrument), the
// hot solve paths then update pre-registered nil-safe counters with single
// atomic increments, and an uninstrumented solver carries nil counters
// whose updates are no-ops.
package pdn

import "parm/internal/obs"

// Instrument registers the solver's counters in r: the memo's lookups and
// overflow resets under pdn/cache/ (entries held = misses - evicted). Call
// it right after NewSolver, before the first solve. A nil registry leaves
// the Solver uninstrumented.
func (s *Solver) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	s.hits = r.Counter("pdn/cache/hits")
	s.misses = r.Counter("pdn/cache/misses")
	s.clears = r.Counter("pdn/cache/clears")
	s.evicted = r.Counter("pdn/cache/evicted")
}
