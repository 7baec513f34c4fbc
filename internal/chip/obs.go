package chip

import "parm/internal/obs"

// Instrument registers the chip's telemetry in r and the pdn solver's
// counters (solve cache and factorization cache). Call it once at
// startup, before the first SamplePSN. A nil registry leaves the chip
// uninstrumented; telemetry never alters sampling behavior or results.
func (c *Chip) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	c.obsSamples = r.Counter("chip/psn/samples")
	c.obsDomainSolves = r.Counter("chip/psn/domain_solves")
	// Active-domain population per sample; bucket on the occupancy range of
	// the paper's 10x6 mesh (15 domains).
	c.obsActiveDomains = r.Histogram("chip/psn/active_domains", []float64{1, 2, 4, 8, 12, 15})
	c.solver.Instrument(r)
}
