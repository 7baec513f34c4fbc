// Fixture for the obsreg analyzer: registration inside hot loops and
// unbalanced spans fire; startup registration, hot-loop updates on
// pre-registered handles, balanced or escaped spans, and //parm:obsreg sites
// do not. The local Registry/Timeline stand-ins mirror
// internal/obs (fixtures type-check against the standard library alone, so
// the analyzer matches the receiver type names).
package fixture

type Counter struct{ n uint64 }

func (c *Counter) Inc() { c.n++ }

type Registry struct{}

func (r *Registry) Counter(name string) *Counter                { return &Counter{} }
func (r *Registry) Gauge(name string) *Counter                  { return &Counter{} }
func (r *Registry) Histogram(name string, b []float64) *Counter { return &Counter{} }

type Timeline struct{}

type SpanID uint64

func (t *Timeline) StartSpan(name string, ts float64, app int) SpanID { return 1 }
func (t *Timeline) EndSpan(id SpanID, ts float64)                     {}

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

// Seeded regression for the span-balance check: the error path returns with
// the span still open.
func unmatchedOnErrorPath(tl *Timeline, now float64, work func() error) error {
	sp := tl.StartSpan("noc_measure", now, -1) // want `StartSpan result "sp" is not passed to EndSpan on every path`
	if err := work(); err != nil {
		return err // leaks sp
	}
	tl.EndSpan(sp, now)
	return nil
}

func balancedStraightLine(tl *Timeline, now float64) {
	sp := tl.StartSpan("domain_solve", now, -1)
	tl.EndSpan(sp, now)
}

func balancedByEndBeforeErrorCheck(tl *Timeline, now float64, work func() error) error {
	sp := tl.StartSpan("mapper_decide", now, 3)
	err := work()
	tl.EndSpan(sp, now)
	if err != nil {
		return err
	}
	return nil
}

func deferClosesEveryPath(tl *Timeline, now float64, work func() error) error {
	sp := tl.StartSpan("psn_sample", now, -1)
	defer tl.EndSpan(sp, now)
	if err := work(); err != nil {
		return err
	}
	return nil
}

type holder struct{ open SpanID }

func escapedToFieldIsUntracked(tl *Timeline, h *holder, now float64, fail bool) {
	// Stored in a field: ownership leaves this function (the engine's
	// windowSpan idiom), so the balance is not this CFG's to enforce.
	sp := tl.StartSpan("window", now, -1)
	h.open = sp
	if fail {
		return
	}
	tl.EndSpan(h.open, now)
}

func branchBalancedBothArms(tl *Timeline, now float64, fast bool) {
	sp := tl.StartSpan("noc_window", now, -1)
	if fast {
		tl.EndSpan(sp, now)
		return
	}
	tl.EndSpan(sp, now+1)
}

func loopLocalSpansAreFine(tl *Timeline, now float64, xs []float64) {
	for range xs {
		sp := tl.StartSpan("iter", now, -1)
		tl.EndSpan(sp, now)
	}
}

func suppressedLeak(tl *Timeline, now float64, fail bool) {
	//parm:obsreg
	sp := tl.StartSpan("debug", now, -1)
	if fail {
		return
	}
	tl.EndSpan(sp, now)
}
