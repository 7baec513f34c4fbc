package appmodel

import (
	"fmt"
	"sync"

	"parm/internal/pdn"
	"parm/internal/power"
)

// FlitBytes is the payload of one NoC flit in bytes (128-bit links).
const FlitBytes = 16

// estFlitsPerCycle is the effective per-flow NoC throughput in flits/cycle
// assumed by the offline WCET estimate (the real value comes from the NoC
// simulation at runtime; the estimate only has to be in the right ballpark
// for Algorithm 1's deadline feasibility check).
const estFlitsPerCycle = 1.0

// routerUtilEstimate is the profiled average router utilization per kind,
// used only in offline power estimates.
func routerUtilEstimate(k Kind) float64 {
	if k == CommIntensive {
		return 0.40
	}
	return 0.15
}

// EdgeCommCycles returns the profile-time estimate of one edge's serialized
// transfer in cycles: its flit count at the assumed effective per-flow NoC
// throughput. The runtime replaces this with NoC-measured values.
func EdgeCommCycles(e Edge) float64 {
	return e.Volume / FlitBytes / estFlitsPerCycle
}

// SyncCyclesPerTask returns the per-task barrier/synchronization overhead
// in cycles at the given DoP. It is sized so a typical critical path
// accumulates roughly SyncKCyclesPerTask * dop kilocycles in total, making
// speedup roll off at high DoP as the paper observes.
func (b Benchmark) SyncCyclesPerTask(dop int) float64 {
	return b.SyncKCyclesPerTask * 1e3 * float64(dop) / 8
}

// RouterHz is the NoC clock used to convert communication cycles to
// seconds in profile estimates (paper §4.4: routers at 1 GHz).
const RouterHz = 1e9

// SPMDTimeEstimate returns the per-thread SPMD execution-time estimate of
// graph g in seconds: compute (work + barrier overhead at the given core
// frequency) plus half of every incident edge's serialized transfer at the
// profile-time NoC throughput. The slowest thread bounds the application
// (paper §3.2: threads run concurrently on dedicated cores; edges are
// communication volumes).
func (g *APG) SPMDTimeEstimate(coreHz, syncCycles float64) float64 {
	n := g.NumTasks()
	t := make([]float64, n)
	for i, task := range g.Tasks {
		t[i] = (task.WorkCycles + syncCycles) / coreHz
	}
	for _, e := range g.Edges {
		d := EdgeCommCycles(e) / RouterHz
		t[e.Src] += d / 2
		t[e.Dst] += d / 2
	}
	m := 0.0
	for _, v := range t {
		if v > m {
			m = v
		}
	}
	return m
}

// wcetCache and powerCache memoize WCETEstimate and PowerEstimate:
// Algorithm 1 evaluates them for the (Vdd, DoP) combinations of every
// scheduling attempt. Profiles are deterministic, so caching is safe.
// estimateGraphs holds the APG an uncached estimate and App.Graph read, one
// per table benchmark and DoP, so a miss at a new Vdd builds no graph and no
// app builds its own copy: without it each miss built a graph and its RNG,
// and a run's allocation depended on how many estimates earlier runs in the
// process had left cached.
var (
	wcetCache      sync.Map // estimateKey -> float64
	powerCache     sync.Map // estimateKey -> power.Watts
	estimateGraphs sync.Map // graphKey -> *APG, read-only
)

// graphKey names one table benchmark's APG at one DoP.
type graphKey struct {
	bench string
	dop   int
}

// estimateGraph returns b's APG at dop for the estimates and App.Graph,
// which only read it. Only table benchmarks are cached, so a Benchmark with
// changed fields (or a NaN one, which would never match its key) is built
// afresh.
func (b Benchmark) estimateGraph(dop int) *APG {
	if !tableBench(&b) {
		return b.Graph(dop)
	}
	key := graphKey{bench: b.Name, dop: dop}
	if g, ok := estimateGraphs.Load(key); ok {
		return g.(*APG)
	}
	g, _ := estimateGraphs.LoadOrStore(key, b.Graph(dop))
	return g.(*APG)
}

// tableBench reports whether b is its name's benchTable entry.
func tableBench(b *Benchmark) bool {
	for i := range benchTable {
		if benchTable[i].Name == b.Name {
			return benchTable[i] == *b
		}
	}
	return false
}

// estimateKey holds the inputs of a cached estimate. Only a node's table
// parameters (power.Params) are cached, so the Node stands for all of them.
type estimateKey struct {
	bench string
	node  power.Node
	vdd   power.Volts
	dop   int
}

// tableParams reports whether p is its node's table entry. Estimates for
// any other parameter set (tests vary single constants) are computed
// uncached, so they never read or overwrite the table entry's values.
func tableParams(p *power.NodeParams) bool {
	q, ok := power.Params(p.Node)
	return ok && q == *p
}

// WCETEstimate returns the profiled worst-case execution time in seconds of
// benchmark b at supply voltage vdd and parallelism dop on node p (paper
// Algorithm 1, line 5): the SPMD makespan estimate with profile-time
// communication throughput. It returns +Inf when vdd cannot clock the core
// (at or below threshold).
func (b Benchmark) WCETEstimate(p power.NodeParams, vdd power.Volts, dop int) float64 {
	if !tableParams(&p) {
		return b.computeWCET(p, vdd, dop)
	}
	key := estimateKey{bench: b.Name, node: p.Node, vdd: vdd, dop: dop}
	if v, ok := wcetCache.Load(key); ok {
		return v.(float64)
	}
	est := b.computeWCET(p, vdd, dop)
	wcetCache.Store(key, est)
	return est
}

func (b Benchmark) computeWCET(p power.NodeParams, vdd power.Volts, dop int) float64 {
	f := p.Frequency(vdd)
	if f <= 0 {
		return inf()
	}
	return b.estimateGraph(dop).SPMDTimeEstimate(f, b.SyncCyclesPerTask(dop))
}

// PowerEstimate returns the profiled total power of benchmark b mapped at
// vdd with parallelism dop: the sum of its tasks' tile powers (paper
// Algorithm 2, line 1 input).
func (b Benchmark) PowerEstimate(p power.NodeParams, vdd power.Volts, dop int) power.Watts {
	if !tableParams(&p) {
		return b.computePower(p, vdd, dop)
	}
	key := estimateKey{bench: b.Name, node: p.Node, vdd: vdd, dop: dop}
	if v, ok := powerCache.Load(key); ok {
		return v.(power.Watts)
	}
	total := b.computePower(p, vdd, dop)
	powerCache.Store(key, total)
	return total
}

func (b Benchmark) computePower(p power.NodeParams, vdd power.Volts, dop int) power.Watts {
	ru := routerUtilEstimate(b.Kind)
	total := power.Watts(0)
	for _, t := range b.estimateGraph(dop).Tasks {
		total += p.TilePower(vdd, pdn.ActivityFactor(t.Activity), ru)
	}
	return total
}

// App is one arriving application instance: a benchmark plus its arrival
// time and deadline. Apps are what the PARM service queue holds.
type App struct {
	// ID is unique within a workload.
	ID int
	// Bench is the profiled benchmark this instance runs.
	Bench Benchmark
	// Arrival is the arrival time in seconds from workload start.
	Arrival float64
	// RelDeadline is the deadline in seconds, relative to arrival.
	RelDeadline float64
}

// AbsDeadline returns the absolute deadline in seconds from workload start.
func (a *App) AbsDeadline() float64 { return a.Arrival + a.RelDeadline }

// Graph returns the APG of this app at the given DoP. For a table
// benchmark it is the graph the estimates read, shared by every app of that
// benchmark, so callers must not modify it.
func (a *App) Graph(dop int) *APG { return a.Bench.estimateGraph(dop) }

// String identifies the app for logs: "app3(fft)".
func (a *App) String() string { return fmt.Sprintf("app%d(%s)", a.ID, a.Bench.Name) }

func inf() float64 { return 1e308 }
