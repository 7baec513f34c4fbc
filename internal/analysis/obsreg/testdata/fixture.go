// Fixture for the obsreg analyzer: registration inside hot loops fires;
// startup registration, hot-loop updates on pre-registered handles, and
// //parm:obsreg sites do not. The local Registry stand-in mirrors
// internal/obs (fixtures type-check against the standard library alone, so
// the analyzer matches the receiver type name).
package fixture

type Counter struct{ n uint64 }

func (c *Counter) Inc() { c.n++ }

type Registry struct{}

func (r *Registry) Counter(name string) *Counter                { return &Counter{} }
func (r *Registry) Gauge(name string) *Counter                  { return &Counter{} }
func (r *Registry) Histogram(name string, b []float64) *Counter { return &Counter{} }

//parm:hot
func hotLoopRegistration(r *Registry, xs []float64) {
	for range xs {
		c := r.Counter("pdn/solves") // want `Registry.Counter registers a metric inside a hot loop`
		c.Inc()
		g := r.Gauge("pdn/depth") // want `Registry.Gauge registers a metric inside a hot loop`
		g.Inc()
		h := r.Histogram("pdn/dist", nil) // want `Registry.Histogram registers a metric inside a hot loop`
		h.Inc()
	}
}

//parm:hot
func hotLoopUpdateIsFine(r *Registry, xs []float64) {
	// Pre-registered outside the loop: the sanctioned two-phase pattern.
	c := r.Counter("noc/flits")
	for range xs {
		c.Inc()
	}
}

func coldLoopRegistrationIsFine(r *Registry, names []string) []*Counter {
	// Startup registration may loop (per-domain counters); only //parm:hot
	// functions are policed.
	out := make([]*Counter, 0, len(names))
	for _, n := range names {
		out = append(out, r.Counter(n))
	}
	return out
}

//parm:hot
func suppressedRegistration(r *Registry, xs []float64) {
	for range xs {
		//parm:obsreg
		c := r.Counter("justified")
		c.Inc()
	}
}
