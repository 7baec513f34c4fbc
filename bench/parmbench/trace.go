package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parm/internal/appmodel"
	"parm/internal/chip"
	"parm/internal/core"
	"parm/internal/geom"
	"parm/internal/mapping"
	"parm/internal/noc"
	"parm/internal/obs"
)

// decisionCap bounds the traced phase's decision log; a phase that fills it
// is reported as an error rather than undercounted.
const decisionCap = 1 << 16

// tracer collects a traced phase's observations from outside the program:
// spans around the public entry points and every Mapper.Map call, Route call
// counts, the telemetry registry and the Algorithm 1 decision log. Spans are
// kept in memory and written as a Chrome trace when the phase ends.
type tracer struct {
	reg   *obs.Registry
	dl    *obs.DecisionLog
	epoch time.Time
	next  atomic.Int64

	mu       sync.Mutex
	spans    []span
	mapFails int
	routers  []*countingRouter
}

// span is one timed interval. Spans of one operation share Op; Parent is
// the ID of the span that caused it (-1 for an operation). Tid separates the
// sweep's concurrent cells.
type span struct {
	Name       string
	ID, Parent int
	Op, Tid    int
	Start, End time.Time
}

func newTracer() *tracer {
	return &tracer{reg: obs.NewRegistry(), dl: obs.NewDecisionLog(decisionCap), epoch: time.Now()}
}

// id allocates a span ID.
func (t *tracer) id() int { return int(t.next.Add(1)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap returns fw with its mapper timed and its routing counted; Map spans
// get parent as their cause.
func (t *tracer) wrap(fw core.Framework, op, tid, parent int) core.Framework {
	r := &countingRouter{inner: fw.Routing}
	t.mu.Lock()
	t.routers = append(t.routers, r)
	t.mu.Unlock()
	fw.Routing = r
	fw.Mapper = &timedMapper{inner: fw.Mapper, t: t, op: op, tid: tid, parent: parent}
	return fw
}

// timedMapper records a wall-clock span around every Map call.
type timedMapper struct {
	inner           mapping.Mapper
	t               *tracer
	op, tid, parent int
}

func (m *timedMapper) Name() string { return m.inner.Name() }

func (m *timedMapper) Map(c *chip.Chip, g *appmodel.APG) (*mapping.Placement, bool) {
	start := time.Now()
	p, ok := m.inner.Map(c, g)
	s := span{Name: "map", ID: m.t.id(), Parent: m.parent, Op: m.op, Tid: m.tid, Start: start, End: time.Now()}
	m.t.mu.Lock()
	m.t.spans = append(m.t.spans, s)
	if !ok {
		m.t.mapFails++
	}
	m.t.mu.Unlock()
	return p, ok
}

// countingRouter counts Route calls. Route runs in the NoC hot loop, so it
// only counts; each engine gets its own counter.
type countingRouter struct {
	inner noc.Algorithm
	calls atomic.Int64
}

func (r *countingRouter) Name() string { return r.inner.Name() }

func (r *countingRouter) Route(ctx noc.RouteCtx) geom.Dir {
	r.calls.Add(1)
	return r.inner.Route(ctx)
}

// mapMicros returns the Map span durations in microseconds.
func (t *tracer) mapMicros() []float64 {
	var us []float64
	for _, s := range t.spans {
		if s.Name == "map" {
			us = append(us, float64(s.End.Sub(s.Start).Nanoseconds())/1e3)
		}
	}
	return us
}

// writeChrome writes the spans as Chrome trace JSON (chrome://tracing,
// Perfetto): complete events in microseconds since the phase began.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	doc := struct {
		TraceEvents []event `json:"traceEvents"`
	}{TraceEvents: make([]event, 0, len(t.spans))}
	for _, s := range t.spans {
		doc.TraceEvents = append(doc.TraceEvents, event{
			Name: s.Name, Ph: "X", TS: us(s.Start.Sub(t.epoch)), Dur: us(s.End.Sub(s.Start)),
			Pid: 1, Tid: s.Tid, Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerCounts derives the per-layer metrics that need no profile from a
// traced phase: counts per operation from the telemetry registry, the
// decision log and the wrappers, plus the auto-mode drift, the untraced
// phase's CPU use and the tracing overhead.
func (t *tracer) layerCounts(traced, plain phaseStats, chk *checker) map[string]float64 {
	ops := float64(traced.ops)
	c := func(name string) float64 { return float64(t.reg.Counter(name).Value()) }
	windows, analytic, fallback := c("noc/windows"), c("noc/analytic_windows"), c("noc/analytic_fallbacks")
	cycleWindows := windows - analytic
	hits, misses := c("noc/memo/hits"), c("noc/memo/misses")
	// Every window measures the same cycle count; cycle windows also warm up.
	simCycles := c("noc/warmup_cycles") + cycleWindows*ratio(c("noc/measured_cycles"), windows)
	var routes int64
	for _, r := range t.routers {
		routes += r.calls.Load()
	}
	decisions := t.dl.Decisions()
	stalls := 0
	for _, d := range decisions {
		if d.Outcome == "stalled" {
			stalls++
		}
	}
	mapUS := t.mapMicros()
	mapS := 0.0
	for _, us := range mapUS {
		mapS += us / 1e6
	}
	pdnHits, pdnMisses := c("pdn/cache/hits"), c("pdn/cache/misses")
	return map[string]float64{
		"noc.windows":              windows / ops,
		"noc.cycle_windows":        cycleWindows / ops,
		"noc.analytic_windows":     analytic / ops,
		"noc.fallback_windows":     fallback / ops,
		"noc.analytic_accept_frac": ratio(analytic, analytic+fallback),
		"noc.memo_hit_frac":        ratio(hits, hits+misses),
		"noc.sim_cycles":           simCycles / ops,
		"noc.route_calls":          float64(routes) / ops,
		"noc.err_total_time":       chk.drift[0],
		"noc.err_packet_latency":   chk.drift[1],
		"noc.err_avg_psn":          chk.drift[2],
		"chip.psn_samples":         c("chip/psn/samples") / ops,
		"pdn.solves":               c("chip/psn/domain_solves") / ops,
		"pdn.cache_hit_frac":       ratio(pdnHits, pdnHits+pdnMisses),
		"mapping.map_calls":        float64(len(mapUS)) / ops,
		"mapping.map_fail_frac":    ratio(float64(t.mapFails), float64(len(mapUS))),
		"mapping.map_s":            mapS / ops,
		"mapping.map_us_p50":       median(mapUS),
		"mapping.map_us_tail":      tail(mapUS),
		"core.events":              c("engine/events") / ops,
		"core.alg1_scans":          float64(len(decisions)) / ops,
		"core.alg1_candidates":     c("mapper/candidates") / ops,
		"core.alg1_stall_frac":     ratio(float64(stalls), float64(len(decisions))),
		"core.drops":               c("mapper/dropped") / ops,
		"runtime.gc_cycles":        float64(traced.gcs) / ops,
		"proc.cpu_util":            plain.cpu.Seconds() / (plain.wall.Seconds() * float64(runtime.GOMAXPROCS(0))),
		"trace.overhead_frac":      typical(traced.run)/typical(plain.run) - 1,
	}
}
