// Telemetry hooks for the solver layer. Instrumentation is opt-in and
// behavior-neutral: registration happens once at startup (Instrument /
// NewSolverObs), the hot solve paths then update pre-registered nil-safe
// counters with single atomic increments, and an uninstrumented solver
// carries nil counters whose updates are no-ops.
package pdn

import "parm/internal/obs"

// SolverObs holds the pre-registered pdn telemetry counters shared by every
// Solver of one run: the admittance factorization-cache hit rates. A nil
// *SolverObs disables instrumentation.
type SolverObs struct {
	facHits, facMisses *obs.Counter
}

// NewSolverObs registers the pdn solver metrics in r and returns the
// counter set to hand to each Solver via Instrument. A nil registry returns
// nil (telemetry off).
func NewSolverObs(r *obs.Registry) *SolverObs {
	if r == nil {
		return nil
	}
	return &SolverObs{
		facHits:   r.Counter("pdn/lti/factor_hits"),
		facMisses: r.Counter("pdn/lti/factor_misses"),
	}
}

// Instrument attaches the shared counter set to this Solver. Call it right
// after NewSolver, before the first solve; a nil o leaves the Solver
// uninstrumented.
func (s *Solver) Instrument(o *SolverObs) {
	if o == nil {
		return
	}
	s.lti.facHits = o.facHits
	s.lti.facMisses = o.facMisses
}

// Instrument mirrors the cache's lifetime counters into pre-registered
// telemetry counters under pdn/cache/. Call it once at startup; a nil
// registry leaves the cache uninstrumented. The obs mirrors are cumulative
// event counts — the authoritative point-in-time view remains Stats().
func (c *SolveCache) Instrument(r *obs.Registry) {
	c.obsHits = r.Counter("pdn/cache/hits")
	c.obsMisses = r.Counter("pdn/cache/misses")
	c.obsClears = r.Counter("pdn/cache/clears")
	c.obsEvicted = r.Counter("pdn/cache/evicted")
}
