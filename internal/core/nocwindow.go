package core

import (
	"fmt"
	"math"
	"slices"

	"parm/internal/noc"
	"parm/internal/obs"
)

// nocWindow produces the engine's NoC measurement windows: the network is
// measured at every map and unmap event (paper §5.1), and the next PSN
// sample reads that window's router utilization. It owns the mesh, the one
// reused cycle-level network, the memo of recent windows and, in
// NoCModeAuto, the choice between an analytic window and a cycle fallback.
type nocWindow struct {
	cfg     noc.Config
	routing noc.Algorithm
	mode    NoCMode
	// readsPSN reports whether a window under routing depends on the sensor
	// PSN. XY and ICON never read it (noc.TestMeasureIgnoresPSN), so their
	// memo keys on the flows alone. Any other algorithm, a wrapper around XY
	// or ICON included, is assumed to read it.
	readsPSN bool
	// noMemo turns the memo off, so every call measures: the reference path
	// that tests compare the memoized one against.
	noMemo bool

	// net is reset for every window simulated cycle by cycle. The first such
	// window allocates it, which keeps engine set-up cheap.
	net *noc.Network

	// memo holds recent windows with the exact inputs each was taken under.
	// A window is a deterministic function of (mesh, routing, flow list,
	// sensor PSN), so when those inputs recur the stored result is reused.
	// Windows happen at map/unmap events, which always change the flow set,
	// so recurrence means returning to an *earlier* state (an app maps and
	// completes, restoring the previous flow set under an unchanged
	// quantized sensor environment), hence a small bounded history rather
	// than a single entry.
	memo         []nocMemoEntry
	hits, misses int
	// quantBuf holds the quantized memo key in NoCModeAuto.
	quantBuf []noc.Flow

	// Telemetry, registered by instrument; nil counters discard updates.
	obsHits     *obs.Counter // noc/memo/hits
	obsMisses   *obs.Counter // noc/memo/misses
	obsWindows  *obs.Counter // noc/windows: windows actually produced
	obsAnalytic *obs.Counter // noc/analytic_windows: windows answered by the closed form
	obsFallback *obs.Counter // noc/analytic_fallbacks: saturated windows sent back to cycle sim
	obsWarmup   *obs.Counter // noc/warmup_cycles
	obsMeasured *obs.Counter // noc/measured_cycles
	obsInj      *obs.Counter // noc/flits_injected/<scheme>
	obsDel      *obs.Counter // noc/flits_delivered/<scheme>
}

// nocMemoEntry is one remembered window with its exact inputs.
type nocMemoEntry struct {
	flows []noc.Flow
	psn   []float64
	res   *noc.Result
}

// nocMemoCap bounds the memo. Recurrence comes from the running set
// oscillating through recent states, so a short history suffices; the
// linear key scan over a handful of entries is negligible next to a
// warmup+measure cycle simulation.
const nocMemoCap = 16

// nocRateQuantum is the flow-rate grid of NoCModeAuto's memo key: rates are
// snapped to multiples of 1/4096 flit/cycle before the lookup, so mapper
// states whose flow rates differ by less than half a quantum share one
// window. The induced error is bounded by the drift tests (DESIGN.md §11);
// NoCModeCycle keys on exact rates and is unaffected.
const nocRateQuantum = 1.0 / 4096

// newNoCWindow returns the window producer for a width x height mesh (a
// zero mesh selects the 10x6 default, as in the chip). It rejects a mesh the
// NoC cannot simulate.
func newNoCWindow(width, height int, routing noc.Algorithm, mode NoCMode) (*nocWindow, error) {
	cfg := noc.Config{Width: width, Height: height}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: Config.Chip: %w", err)
	}
	w := &nocWindow{cfg: cfg, routing: routing, mode: mode, readsPSN: true}
	switch routing.(type) {
	case noc.XY, noc.ICON:
		w.readsPSN = false
	}
	return w, nil
}

// instrument registers the window counters in r; scheme names the routing
// algorithm of the per-scheme flit totals.
func (w *nocWindow) instrument(r *obs.Registry, scheme string) {
	w.obsHits = r.Counter("noc/memo/hits")
	w.obsMisses = r.Counter("noc/memo/misses")
	w.obsWindows = r.Counter("noc/windows")
	w.obsAnalytic = r.Counter("noc/analytic_windows")
	w.obsFallback = r.Counter("noc/analytic_fallbacks")
	w.obsWarmup = r.Counter("noc/warmup_cycles")
	w.obsMeasured = r.Counter("noc/measured_cycles")
	w.obsInj = r.Counter("noc/flits_injected/" + scheme)
	w.obsDel = r.Counter("noc/flits_delivered/" + scheme)
}

// measure returns the window for the non-empty flow list under env. The
// memo answers when the key matches a remembered window, and so does the
// sensor PSN if the routing reads it. The key is the flow list in
// NoCModeCycle and its quantized rates in NoCModeAuto. Otherwise a fresh
// window is produced. NoCModeAuto first tries the analytic closed form and
// accepts it for uncongested windows (no resource's offered load above the
// NoC's saturation threshold of 0.6 flits per cycle). Everything else runs
// the cycle-accurate warmup+measure on the reused network; auto's fallbacks
// measure fallbackWindowCycles, not windowCycles. The result is shared with
// the memo and must not be modified.
func (w *nocWindow) measure(flows []noc.Flow, env *noc.Env) (*noc.Result, error) {
	key := flows
	if w.mode == NoCModeAuto {
		key = append(w.quantBuf[:0], flows...)
		for i := range key {
			key[i].Rate = math.Round(key[i].Rate/nocRateQuantum) * nocRateQuantum
		}
		w.quantBuf = key
	}
	for i := range w.memo {
		m := &w.memo[i]
		if slices.Equal(m.flows, key) && (!w.readsPSN || slices.Equal(m.psn, env.PSN)) {
			w.hits++
			w.obsHits.Inc()
			return m.res, nil
		}
	}

	var res *noc.Result
	measure := windowCycles
	if w.mode == NoCModeAuto {
		measure = fallbackWindowCycles
		r, rep, err := noc.AnalyticMeasure(w.cfg, w.routing, key, env, windowCycles)
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
		if w.net == nil {
			w.net = new(noc.Network)
		}
		if err := w.net.Reset(w.cfg, w.routing, key, env); err != nil {
			return nil, err
		}
		w.net.Run(warmupCycles)
		res = w.net.Measure(measure)
		w.obsWarmup.Add(warmupCycles)
	}
	w.obsWindows.Inc()
	w.obsMeasured.Add(uint64(res.Cycles))
	w.misses++
	w.obsMisses.Inc()
	var inj, del uint64
	for i := range res.Flows {
		inj += uint64(res.Flows[i].InjectedFlits)
		del += uint64(res.Flows[i].DeliveredFlits)
	}
	w.obsInj.Add(inj)
	w.obsDel.Add(del)
	if w.noMemo {
		return res, nil
	}
	// Copy the inputs: key aliases a reusable buffer and env.PSN is
	// overwritten by the next PSN sample. Evict the oldest entry once full,
	// recycling its slices.
	var entry nocMemoEntry
	if len(w.memo) >= nocMemoCap {
		entry = w.memo[0]
		w.memo = append(w.memo[:0], w.memo[1:]...)
	}
	entry.flows = append(entry.flows[:0], key...)
	entry.psn = append(entry.psn[:0], env.PSN...)
	entry.res = res
	w.memo = append(w.memo, entry)
	return res, nil
}
