// Telemetry hooks for the solver layer. Instrumentation is opt-in and
// behavior-neutral: registration happens once at startup (Instrument), the
// hot solve paths then update pre-registered nil-safe counters with single
// atomic increments, and an uninstrumented solver carries nil counters
// whose updates are no-ops.
package pdn

import "parm/internal/obs"

// Instrument registers the solver's counters in r: the solve cache's
// lookups and overflow resets under pdn/cache/ (entries held = misses -
// evicted) and the admittance factorization cache's hit rate under
// pdn/lti/. Call it right after NewSolver, before the first solve. A nil
// registry leaves the Solver uninstrumented; an uncached Solver registers
// no pdn/cache/ counters.
func (s *Solver) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	s.lti.facHits = r.Counter("pdn/lti/factor_hits")
	s.lti.facMisses = r.Counter("pdn/lti/factor_misses")
	if c := s.cache; c != nil {
		c.hits = r.Counter("pdn/cache/hits")
		c.misses = r.Counter("pdn/cache/misses")
		c.clears = r.Counter("pdn/cache/clears")
		c.evicted = r.Counter("pdn/cache/evicted")
	}
}
