package core

import (
	"fmt"

	"parm/internal/obs"
)

// telemetry is the engine's pre-registered metric set. It lives by value in
// the Engine so an untelemetered run carries nil metric pointers whose
// updates are no-ops — the event loop needs no enabled/disabled branches.
// Registration happens once in EnableTelemetry; the event-loop updates are
// single atomic operations on these pointers.
type telemetry struct {
	// Algorithm 1 / scheduler (internal/mapping + internal/sched view).
	candidates  *obs.Counter   // mapper/candidates: (Vdd, DoP) points scanned
	mapped      *obs.Counter   // mapper/mapped
	dropped     *obs.Counter   // mapper/dropped
	stalls      *obs.Counter   // mapper/stalls: full scans that ended in a stall
	rejDeadline *obs.Counter   // mapper/reject/deadline: WCET >= time remaining
	rejBudget   *obs.Counter   // mapper/reject/budget: dark-silicon power check
	rejRegion   *obs.Counter   // mapper/reject/region: mapping heuristic found no region
	queueDepth  *obs.Gauge     // mapper/queue_depth
	waitS       *obs.Histogram // mapper/wait_s: queue time at mapping, seconds

	// Event-loop progress, the /healthz liveness signal: events counts loop
	// iterations and simTime carries the engine clock, so a frozen simTime
	// across scrapes distinguishes a stalled run from a slow one.
	events  *obs.Counter    // engine/events
	simTime *obs.FloatGauge // engine/sim_time_s

	// PSN / voltage-emergency accounting.
	ves           *obs.Counter   // engine/ves: VE rollbacks charged
	sensorSamples *obs.Counter   // chip/sensor/samples: per-tile sensor records
	domainVEs     []*obs.Counter // chip/domain/NN/ves: samples with the domain over threshold
}

// init registers the engine's own metrics in r (the NoC window registers
// its counters itself, see nocWindow.instrument). numDomains sizes the
// per-domain VE counter set.
func (t *telemetry) init(r *obs.Registry, numDomains int) {
	t.candidates = r.Counter("mapper/candidates")
	t.mapped = r.Counter("mapper/mapped")
	t.dropped = r.Counter("mapper/dropped")
	t.stalls = r.Counter("mapper/stalls")
	t.rejDeadline = r.Counter("mapper/reject/deadline")
	t.rejBudget = r.Counter("mapper/reject/budget")
	t.rejRegion = r.Counter("mapper/reject/region")
	t.queueDepth = r.Gauge("mapper/queue_depth")
	t.waitS = r.Histogram("mapper/wait_s", []float64{0.01, 0.05, 0.1, 0.5, 1, 5})

	t.events = r.Counter("engine/events")
	t.simTime = r.FloatGauge("engine/sim_time_s")
	t.ves = r.Counter("engine/ves")
	t.sensorSamples = r.Counter("chip/sensor/samples")
	t.domainVEs = make([]*obs.Counter, numDomains)
	for d := range t.domainVEs {
		t.domainVEs[d] = r.Counter(fmt.Sprintf("chip/domain/%02d/ves", d))
	}
}

// domainVE returns the VE counter of domain d (nil when telemetry is off).
func (t *telemetry) domainVE(d int) *obs.Counter {
	if d < len(t.domainVEs) {
		return t.domainVEs[d]
	}
	return nil
}

// EnableTelemetry registers the engine's metrics in r and instruments the
// chip and pdn layers beneath it. Call it once, after NewEngine and before
// Run; a nil registry is a no-op. Telemetry is strictly observational: a
// run's Metrics, trace, and outcomes are byte-identical with it on or off.
func (e *Engine) EnableTelemetry(r *obs.Registry) {
	if r == nil {
		return
	}
	e.reg = r
	e.tel.init(r, e.chip.NumDomains())
	e.win.instrument(r, e.fw.Routing.Name())
	e.chip.Instrument(r)
	e.linkObs()
}

// AttachTimeline directs the engine's event timeline (map/unmap/app-span/
// drop/sample/VE events) into tl. Every timestamp is simulated time from
// the engine clock, never wall clock, so timelines replay deterministically.
// A nil timeline (the default) records nothing.
func (e *Engine) AttachTimeline(tl *obs.Timeline) {
	e.timeline = tl
	e.linkObs()
}

// AttachDecisions directs the mapper's Algorithm 1 decision provenance into
// dl: one record per scheduling attempt with the candidate count, the
// rejection breakdown, and the chosen operating point. A nil log (the
// default) records nothing.
func (e *Engine) AttachDecisions(dl *obs.DecisionLog) {
	e.decisions = dl
}

// linkObs attaches the timeline's event drop count to the registry as a
// snapshot-time collector, once both sides are present. The collector only
// reads, so the observational contract holds.
func (e *Engine) linkObs() {
	if e.reg == nil || e.timeline == nil {
		return
	}
	tl := e.timeline
	e.reg.Attach("obs/timeline_dropped", tl.Dropped)
}
