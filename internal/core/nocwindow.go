package core

import (
	"fmt"

	"parm/internal/noc"
	"parm/internal/obs"
)

// nocWindow produces the engine's NoC measurement windows: the network is
// measured at every map and unmap event (paper §5.1), and the next PSN
// sample reads that window's router utilization. It owns the mesh, the one
// reused cycle-level network and, in NoCModeAuto, the choice between an
// analytic window and a cycle fallback.
type nocWindow struct {
	cfg     noc.Config
	routing noc.Algorithm
	mode    NoCMode
	// warmup and cycles are the warmup and measured lengths of every
	// cycle-simulated window: warmupCycles and windowCycles, except for
	// NoCModeAuto's congested fallbacks under soft deadlines, which run
	// fallbackWarmupCycles and measure fallbackWindowCycles.
	warmup, cycles int

	// onCycleWindow, when set by a test, sees the flows and sensor readings
	// of every window simulated cycle by cycle, before it runs. In
	// NoCModeAuto those are exactly the fallbacks.
	onCycleWindow func(flows []noc.Flow, env *noc.Env)

	// net is reset for every window simulated cycle by cycle. The first such
	// window allocates it, which keeps engine set-up cheap.
	net *noc.Network

	// Telemetry, registered by instrument; nil counters discard updates.
	obsWindows  *obs.Counter // noc/windows: windows produced
	obsAnalytic *obs.Counter // noc/analytic_windows: windows answered by the closed form
	obsFallback *obs.Counter // noc/analytic_fallbacks: saturated windows sent back to cycle sim
	obsWarmup   *obs.Counter // noc/warmup_cycles
	obsMeasured *obs.Counter // noc/measured_cycles
	obsInj      *obs.Counter // noc/flits_injected/<scheme>
	obsDel      *obs.Counter // noc/flits_delivered/<scheme>
}

// newNoCWindow returns the window producer for cfg's chip mesh (a zero mesh
// selects the 10x6 default, as in the chip), NoC mode and deadline kind. It
// rejects a mesh the NoC cannot simulate.
func newNoCWindow(cfg Config, routing noc.Algorithm) (*nocWindow, error) {
	nc := noc.Config{Width: cfg.Chip.Width, Height: cfg.Chip.Height}
	if err := nc.Validate(); err != nil {
		return nil, fmt.Errorf("core: Config.Chip: %w", err)
	}
	w := &nocWindow{cfg: nc, routing: routing, mode: cfg.NoCMode, warmup: warmupCycles, cycles: windowCycles}
	if cfg.NoCMode == NoCModeAuto && cfg.SoftDeadlines {
		w.warmup, w.cycles = fallbackWarmupCycles, fallbackWindowCycles
	}
	return w, nil
}

// instrument registers the window counters in r; scheme names the routing
// algorithm of the per-scheme flit totals.
func (w *nocWindow) instrument(r *obs.Registry, scheme string) {
	w.obsWindows = r.Counter("noc/windows")
	w.obsAnalytic = r.Counter("noc/analytic_windows")
	w.obsFallback = r.Counter("noc/analytic_fallbacks")
	w.obsWarmup = r.Counter("noc/warmup_cycles")
	w.obsMeasured = r.Counter("noc/measured_cycles")
	w.obsInj = r.Counter("noc/flits_injected/" + scheme)
	w.obsDel = r.Counter("noc/flits_delivered/" + scheme)
}

// measure returns the window for the non-empty flow list under env.
// NoCModeAuto first tries the analytic closed form and accepts it for
// uncongested windows (no resource's offered load above the NoC's
// saturation threshold of 0.6 flits per cycle). Everything else runs the
// cycle-accurate warmup of w.warmup and a measurement of w.cycles on the
// reused network.
func (w *nocWindow) measure(flows []noc.Flow, env *noc.Env) (*noc.Result, error) {
	var res *noc.Result
	if w.mode == NoCModeAuto {
		r, rep, err := noc.AnalyticMeasure(w.cfg, w.routing, flows, env, windowCycles)
		if err != nil {
			return nil, err
		}
		if rep.Saturated {
			w.obsFallback.Inc()
		} else {
			w.obsAnalytic.Inc()
			res = r
		}
	}
	if res == nil {
		if w.onCycleWindow != nil {
			w.onCycleWindow(flows, env)
		}
		if w.net == nil {
			w.net = new(noc.Network)
		}
		if err := w.net.Reset(w.cfg, w.routing, flows, env); err != nil {
			return nil, err
		}
		w.net.Run(w.warmup)
		res = w.net.Measure(w.cycles)
		w.obsWarmup.Add(uint64(w.warmup))
	}
	w.obsWindows.Inc()
	w.obsMeasured.Add(uint64(res.Cycles))
	var inj, del uint64
	for i := range res.Flows {
		inj += uint64(res.Flows[i].InjectedFlits)
		del += uint64(res.Flows[i].DeliveredFlits)
	}
	w.obsInj.Add(inj)
	w.obsDel.Add(del)
	return res, nil
}
