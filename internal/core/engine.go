package core

import (
	"fmt"
	"slices"
	"sort"

	"parm/internal/appmodel"
	"parm/internal/chip"
	"parm/internal/mapping"
	"parm/internal/noc"
	"parm/internal/obs"
	"parm/internal/pdn"
	"parm/internal/power"
	"parm/internal/sched"
)

// Config parameterizes a simulation run.
type Config struct {
	// Chip configures the CMP platform (defaults: 10x6 mesh, 7nm, 65 W).
	// The NoC mesh is the chip's.
	Chip chip.Config
	// SensorBits is the PSN sensor quantization, at most 16 bits. Zero
	// selects 6 bits.
	SensorBits uint
	// SoftDeadlines makes deadlines advisory: the (Vdd, DoP) selection
	// still targets the application's relative deadline, but applications
	// are never dropped — an exhausted search restarts at the next exit
	// event. Used for throughput experiments where every application must
	// execute (paper Fig. 6/7); the oversubscription study (Fig. 8) keeps
	// hard deadlines.
	SoftDeadlines bool
	// NoCMode selects the NoC measurement strategy (DESIGN.md §11). The
	// zero value NoCModeCycle simulates every window cycle by cycle, so
	// metrics stay byte-identical to the recorded experiments. NoCModeAuto
	// answers uncongested windows with the closed-form analytic model,
	// falling back to cycle simulation when any link's offered load exceeds
	// the NoC's saturation threshold.
	NoCMode NoCMode
}

// The engine's timing parameters are fixed platform constants (DESIGN.md
// §5). NoC cycles convert to seconds at appmodel.RouterHz, the clock
// Algorithm 1's WCET estimate uses (paper §4.4: hop selection at 1 GHz).
const (
	// samplePeriod is the PSN sampling interval in seconds (paper §5.1
	// samples periodically and at map/unmap events).
	samplePeriod = 0.01
	// windowCycles is the NoC measurement window length in cycles.
	windowCycles = 8000
	// warmupCycles precede each measurement window.
	warmupCycles = 1500
	// fallbackWindowCycles is the measured length of NoCModeAuto's cycle
	// windows (its congested fallbacks) under soft deadlines, after the same
	// warmup. Chip-wide router activity, which the PDN reads, is then within
	// 4.6% of a windowCycles window, and a sequential stopping rule bought
	// no engine-level accuracy over this fixed floor. Soft deadlines never
	// drop an app, so the shorter window moves only continuous metrics;
	// under hard deadlines it can flip a drop, and auto's fallbacks measure
	// windowCycles there (DESIGN.md §11).
	fallbackWindowCycles = 2000
	// fallbackWarmupCycles replaces warmupCycles before those soft-deadline
	// fallback windows. Window by window against a warmupCycles +
	// windowCycles reference of the same flows, its p95 per-flow throughput
	// error stays far inside the one accepted for fallbackWindowCycles;
	// TestFallbackWarmupError bounds its router-activity and throughput
	// errors (DESIGN.md §11).
	fallbackWarmupCycles = 250
	// maxSimTime is the safety cap on simulated time, in seconds.
	maxSimTime = 300
	// maxSensorBits is the finest PSN sensor quantization pdn.NewSensor
	// accepts.
	maxSensorBits = 16
)

// NoCMode selects how NoC measurement windows are produced.
type NoCMode int

const (
	// NoCModeCycle is the exact default: every window is cycle-simulated.
	NoCModeCycle NoCMode = iota
	// NoCModeAuto uses the analytic fast path for uncongested windows,
	// cycle simulation otherwise.
	NoCModeAuto
)

// String returns the CLI name of the mode.
func (m NoCMode) String() string {
	switch m {
	case NoCModeCycle:
		return "cycle"
	case NoCModeAuto:
		return "auto"
	default:
		return fmt.Sprintf("NoCMode(%d)", int(m))
	}
}

// ParseNoCMode maps a CLI name ("cycle", "auto") to its mode.
func ParseNoCMode(s string) (NoCMode, error) {
	switch s {
	case "cycle":
		return NoCModeCycle, nil
	case "auto":
		return NoCModeAuto, nil
	default:
		return 0, fmt.Errorf("core: unknown NoC mode %q (want cycle or auto)", s)
	}
}

// validate rejects Config values that withDefaults would otherwise misread
// or a later constructor would panic on: a sensor finer than 16 bits and
// unknown mode enums. Zero stays valid everywhere and selects the
// documented default.
func (c Config) validate() error {
	if c.SensorBits > maxSensorBits {
		return fmt.Errorf("core: Config.SensorBits = %d, want at most %d", c.SensorBits, maxSensorBits)
	}
	if c.NoCMode != NoCModeCycle && c.NoCMode != NoCModeAuto {
		return fmt.Errorf("core: unknown %v", c.NoCMode)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.SensorBits == 0 {
		c.SensorBits = 6
	}
	return c
}

// event kinds.
const (
	evArrival = iota
	evCompletion
	evSample
)

type event struct {
	t    float64
	kind int
	app  int
	seq  int // insertion order, for deterministic tie-breaking
}

// eventHeap is a typed binary min-heap ordered by (time, insertion seq).
// Typed push/pop avoid the interface{} boxing of container/heap, which
// allocated one escape per scheduled event on the engine's hottest path.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].t < h[j].t {
		return true
	}
	if h[i].t > h[j].t {
		return false
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Len() int { return len(h) }

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	// Sift up.
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	// Sift down.
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && s.less(right, left) {
			child = right
		}
		if !s.less(child, i) {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	return top
}

// runningApp is the engine's record of a mapped application.
type runningApp struct {
	app       *appmodel.App
	graph     *appmodel.APG
	placement *mapping.Placement
	vdd       power.Volts
	dop       int
	freq      float64
	power     power.Watts
	flows     []noc.Flow
	// flowEdges parallels flows with the APG edge each flow realizes.
	flowEdges []appmodel.Edge

	mappedAt       float64
	completionTime float64
	ves            int
	avgLat         float64
}

// Engine simulates one framework executing one workload on one chip.
type Engine struct {
	cfg Config
	fw  Framework
	// simTimeCap stops the run at this simulated time: maxSimTime, lowered
	// only by tests.
	simTimeCap float64

	chip    *chip.Chip
	now     float64
	events  eventHeap
	seq     int
	queue   []*queueEntry
	running map[int]*runningApp

	arrivalsLeft int

	env    noc.Env
	sensor *pdn.Sensor
	// win produces the NoC measurement windows; routerUtil is the last
	// window's router utilization, which the next PSN sample reads (nil
	// when no flows are active).
	win        *nocWindow
	routerUtil []float64
	// flowsBuf and idsBuf are reused across activeFlows calls to avoid
	// rebuilding the flow list allocation on every event.
	flowsBuf []noc.Flow
	idsBuf   []int

	outcomes map[int]*AppOutcome
	metrics  Metrics

	psnTimeIntegral float64
	psnActiveTime   float64
	lastSampleT     float64
	nextSampleDue   float64

	trace *Trace

	// tel holds the pre-registered metrics (EnableTelemetry); its nil
	// pointers make every update a no-op when telemetry is off. timeline
	// receives the event records (AttachTimeline), nil when disabled. reg
	// keeps the registry so linkObs can attach timeline self-accounting;
	// decisions receives mapper provenance (AttachDecisions).
	tel       telemetry
	timeline  *obs.Timeline
	reg       *obs.Registry
	decisions *obs.DecisionLog
}

// NewEngine builds an engine for the framework under cfg.
func NewEngine(cfg Config, fw Framework) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	// Reject a mesh the NoC cannot simulate before the chip allocates it,
	// rather than at the first window. Chip and NoC default a zero mesh to
	// the same 10x6.
	win, err := newNoCWindow(cfg, fw.Routing)
	if err != nil {
		return nil, err
	}
	c, err := chip.New(cfg.Chip)
	if err != nil {
		return nil, err
	}
	if fw.Mapper == nil || fw.Routing == nil {
		return nil, fmt.Errorf("core: framework %q missing mapper or routing", fw.Name)
	}
	if fw.FixedDoP != 0 && !slices.Contains(appmodel.DoPValues(), fw.FixedDoP) {
		return nil, fmt.Errorf("core: framework %q FixedDoP %d is neither 0 nor one of %v",
			fw.Name, fw.FixedDoP, appmodel.DoPValues())
	}
	n := c.Mesh.NumTiles()
	e := &Engine{
		cfg:        cfg,
		fw:         fw,
		simTimeCap: maxSimTime,
		chip:       c,
		running:    make(map[int]*runningApp),
		env:        noc.Env{PSN: make([]float64, n)},
		sensor:     pdn.NewSensor(n, cfg.SensorBits, 0.20),
		win:        win,
		outcomes:   make(map[int]*AppOutcome),
	}
	return e, nil
}

// Chip exposes the platform for inspection (examples, tests).
func (e *Engine) Chip() *chip.Chip { return e.chip }

func (e *Engine) push(t float64, kind, app int) {
	e.seq++
	e.events.push(event{t: t, kind: kind, app: app, seq: e.seq})
}

// Run executes the workload to completion (or the safety cap) and returns
// the run metrics.
func (e *Engine) Run(w *appmodel.Workload) (*Metrics, error) {
	if w == nil || len(w.Apps) == 0 {
		return nil, fmt.Errorf("core: empty workload")
	}
	e.metrics = Metrics{Framework: e.fw.Name, Workload: w.Kind.String()}
	e.arrivalsLeft = len(w.Apps)
	apps := make(map[int]*appmodel.App, len(w.Apps))
	for _, a := range w.Apps {
		if a.ID < 0 {
			// chip.NoApp (-1) marks an unoccupied domain or tile.
			return nil, fmt.Errorf("core: negative app ID %d", a.ID)
		}
		if _, dup := apps[a.ID]; dup {
			return nil, fmt.Errorf("core: duplicate app ID %d", a.ID)
		}
		apps[a.ID] = a
		e.outcomes[a.ID] = &AppOutcome{App: a, State: StateUnfinished}
		e.push(a.Arrival, evArrival, a.ID)
	}
	e.scheduleSample(0)

	for e.events.Len() > 0 {
		ev := e.events.pop()
		if ev.t > e.simTimeCap {
			break
		}
		e.now = ev.t
		e.tel.events.Inc()
		e.tel.simTime.Set(e.now)
		switch ev.kind {
		case evArrival:
			e.arrivalsLeft--
			e.queue = append(e.queue, &queueEntry{app: apps[ev.app]})
			if err := e.trySchedule(false); err != nil {
				return nil, err
			}
		case evCompletion:
			ra, ok := e.running[ev.app]
			if !ok || ra.completionTime > e.now+1e-12 {
				continue // stale event (completion was pushed back by VEs)
			}
			if err := e.complete(ra); err != nil {
				return nil, err
			}
			if err := e.trySchedule(true); err != nil {
				return nil, err
			}
		case evSample:
			if err := e.periodicSample(); err != nil {
				return nil, err
			}
		}
	}
	// Final accounting.
	for _, a := range w.Apps {
		o := e.outcomes[a.ID]
		switch o.State {
		case StateCompleted:
			e.metrics.Completed++
		case StateDropped:
			e.metrics.Dropped++
		default:
			e.metrics.Unfinished++
		}
		e.metrics.TotalVEs += o.VEs
		e.metrics.TotalEnergyJ += o.EnergyJ
		e.metrics.Apps = append(e.metrics.Apps, *o)
	}
	if e.psnActiveTime > 0 {
		e.metrics.AvgPSN = e.psnTimeIntegral / e.psnActiveTime
	}
	lat, nlat := 0.0, 0
	for _, o := range e.metrics.Apps {
		if o.State == StateCompleted && o.AvgPacketLatency > 0 {
			lat += o.AvgPacketLatency
			nlat++
		}
	}
	if nlat > 0 {
		e.metrics.MeanPacketLatency = lat / float64(nlat)
	}
	return &e.metrics, nil
}

// scheduleSample queues the next periodic PSN sample if work remains.
func (e *Engine) scheduleSample(t float64) {
	if e.arrivalsLeft == 0 && len(e.running) == 0 && len(e.queue) == 0 {
		return
	}
	e.nextSampleDue = t
	e.push(t, evSample, -1)
}

// queueEntry is one waiting application with its Algorithm 1 stall state.
type queueEntry struct {
	app *appmodel.App
	// stalled marks that a full (Vdd, DoP) scan already failed and the app
	// is waiting for an app-exit event before rescanning (Algorithm 1
	// line 9: "stall till an app exit event on CMP").
	stalled bool
}

// trySchedule services the queue head FCFS (paper §3.2): the head either
// maps, stalls for an exit event, or is dropped once every (Vdd, DoP)
// combination has been exhausted (Algorithm 1's anti-stagnation drop).
// resume is true when an app-exit event just occurred, permitting a stalled
// combination its retry.
func (e *Engine) trySchedule(resume bool) error {
	defer func() { e.tel.queueDepth.Set(int64(len(e.queue))) }()
	for len(e.queue) > 0 {
		entry := e.queue[0]
		if entry.stalled && !resume {
			return nil // still waiting for an app exit event
		}
		decision, err := e.algorithm1(entry)
		if err != nil {
			return err
		}
		switch decision {
		case decMapped:
			e.queue = e.queue[1:]
			resume = false // mapping consumed resources, not freed them
		case decDropped:
			e.queue = e.queue[1:]
			o := e.outcomes[entry.app.ID]
			o.State = StateDropped
			e.tel.dropped.Inc()
			e.timeline.Record(obs.TimelineEvent{Name: "drop", TS: e.now, App: entry.app.ID})
			if e.now > e.metrics.TotalTime {
				e.metrics.TotalTime = e.now
			}
		case decWait:
			return nil // head-of-line blocks until the next exit event
		}
	}
	return nil
}

type decision int

const (
	decMapped decision = iota
	decWait
	decDropped
)

// vddDoPLists returns the framework's search axes: PARM searches voltages
// in increasing order and DoP in decreasing order (Algorithm 1 lines 1-4);
// the HM baseline fixes DoP and only scales voltage to meet the deadline.
func (e *Engine) vddDoPLists() (vdds []power.Volts, dops []int) {
	vdds = e.chip.Vdds
	if e.fw.HighVddFirst {
		rev := make([]power.Volts, len(vdds))
		for i, v := range vdds {
			rev[len(vdds)-1-i] = v
		}
		vdds = rev
	}
	if e.fw.FixedDoP != 0 {
		return vdds, []int{e.fw.FixedDoP}
	}
	all := appmodel.DoPValues()
	for i := len(all) - 1; i >= 0; i-- { // descending (line 2)
		dops = append(dops, all[i])
	}
	return vdds, dops
}

// algorithm1 runs the paper's Vdd and DoP selection for the queue head (see
// scan) and acts on the result: it commits the chosen point, or stalls the
// application until an app exit frees resources (line 9) when some
// combination met the deadline but none could be mapped, or drops it to
// avoid queue stagnation when no combination can meet the deadline any more.
func (e *Engine) algorithm1(entry *queueEntry) (decision, error) {
	app := entry.app
	att := e.scan(app, nil)
	e.tel.candidates.Add(uint64(att.candidates))
	e.tel.rejDeadline.Add(uint64(att.rejDeadline))
	e.tel.rejBudget.Add(uint64(att.rejBudget))
	e.tel.rejRegion.Add(uint64(att.rejRegion))
	if att.placement != nil {
		c := att.chosen
		if err := e.commit(app, c.Vdd, c.DoP, att.placement, c.PowerW, c.WCET); err != nil {
			return 0, err
		}
		e.recordDecision(app, "mapped", &att)
		return decMapped, nil
	}
	if att.feasible || e.cfg.SoftDeadlines {
		entry.stalled = true
		e.tel.stalls.Inc()
		e.recordDecision(app, "stalled", &att)
		return decWait, nil
	}
	e.recordDecision(app, "dropped", &att)
	return decDropped, nil
}

// mapAttempt is the result of one Algorithm 1 scan: its provenance (how
// many (Vdd, DoP) candidates were examined and why each was rejected),
// whether any candidate met the deadline, and the chosen point with its
// placement — nil when nothing could be mapped.
type mapAttempt struct {
	candidates  int
	rejDeadline int
	rejBudget   int
	rejRegion   int
	feasible    bool
	chosen      SelectionStep
	placement   *mapping.Placement
}

// scan is Algorithm 1's search for app against the current chip state. It
// commits nothing; step, when non-nil, receives every candidate examined in
// search order, ending at the chosen one. Voltages go in increasing order
// and DoP in decreasing order; a combination that meets the deadline but
// cannot be mapped (power or region) falls through to the next lower DoP,
// which needs fewer tiles and less power (the paper: "Selecting a lower DoP
// would resolve both of these concerns").
//
// WCET is non-monotonic in DoP: synchronization overhead grows with DoP, so
// past the sync knee (DESIGN.md §2) a *lower* DoP is faster. A deadline
// miss therefore only abandons the remaining lower DoPs (paper line 13,
// "lower DoPs are no faster") once the scan is past this Vdd's WCET
// minimum — while WCET is still non-increasing, a lower DoP can still meet
// the deadline and the scan continues.
//
// Under SoftDeadlines a scan in which no combination meets the deadline
// retries best-effort at the fastest point rather than starving the queue.
func (e *Engine) scan(app *appmodel.App, step func(SelectionStep)) mapAttempt {
	vdds, dops := e.vddDoPLists()
	remaining := app.AbsDeadline() - e.now
	if e.cfg.SoftDeadlines {
		remaining = app.RelDeadline
	}
	var att mapAttempt
	best := SelectionStep{WCET: inf} // fastest candidate, for the soft retry
	for _, vdd := range vdds {
		minWCET := inf // per-Vdd WCET minimum seen so far in the DoP scan
		for _, dop := range dops {
			att.candidates++
			st := SelectionStep{Vdd: vdd, DoP: dop, WCET: app.Bench.WCETEstimate(e.chip.Node, vdd, dop)}
			if st.WCET < best.WCET {
				best = st
			}
			if st.WCET >= remaining {
				att.rejDeadline++
				if step != nil {
					step(st)
				}
				if st.WCET > minWCET {
					// Past the sync knee: WCET is rising as DoP falls, so
					// lower DoPs are no faster; next (higher) Vdd (line 13).
					break
				}
				minWCET = st.WCET
				continue
			}
			minWCET = min(minWCET, st.WCET)
			st.DeadlineOK = true
			att.feasible = true
			if e.tryPoint(app, st, &att, step) {
				return att
			}
		}
	}
	if e.cfg.SoftDeadlines && !att.feasible && best.DoP > 0 {
		best.BestEffort = true
		e.tryPoint(app, best, &att, step)
	}
	return att
}

// tryPoint applies the dark-silicon power check (Algorithm 2 line 1) and
// then the framework's mapping heuristic to one candidate, recording the
// outcome in att and reporting the step. It reports whether the candidate
// was chosen.
func (e *Engine) tryPoint(app *appmodel.App, st SelectionStep, att *mapAttempt, step func(SelectionStep)) bool {
	st.PowerW = app.Bench.PowerEstimate(e.chip.Node, st.Vdd, st.DoP)
	st.PowerOK = st.PowerW <= e.chip.Budget.Available()
	if !st.PowerOK {
		att.rejBudget++
	} else {
		st.MappingTried = true
		var p *mapping.Placement
		p, st.MappingOK = e.fw.Mapper.Map(e.chip, app.Graph(st.DoP))
		if st.MappingOK {
			st.Chosen = true
			att.chosen, att.placement = st, p
		} else {
			att.rejRegion++
		}
	}
	if step != nil {
		step(st)
	}
	return st.Chosen
}

// recordDecision logs one scheduling attempt's outcome with its rejection
// breakdown and, for mapped outcomes, the chosen operating point and
// region. Nil-guarded so disabled runs skip even the record construction.
func (e *Engine) recordDecision(app *appmodel.App, outcome string, att *mapAttempt) {
	if e.decisions == nil {
		return
	}
	d := obs.Decision{
		TS:          e.now,
		App:         app.ID,
		Bench:       app.Bench.Name,
		Outcome:     outcome,
		Candidates:  att.candidates,
		RejDeadline: att.rejDeadline,
		RejBudget:   att.rejBudget,
		RejRegion:   att.rejRegion,
		WaitS:       e.now - app.Arrival,
	}
	if att.placement != nil {
		d.Vdd = float64(att.chosen.Vdd)
		d.DoP = att.chosen.DoP
		d.Domains = make([]int, len(att.placement.Domains))
		for i, dom := range att.placement.Domains {
			d.Domains[i] = int(dom)
		}
	}
	e.decisions.Record(d)
}

// inf is a time that no real estimate reaches.
const inf = 1e308

// commit maps the application: reserves power, claims domains and tiles,
// measures the NoC with the new flow set, schedules the completion event,
// and takes the map-event PSN sample.
func (e *Engine) commit(app *appmodel.App, vdd power.Volts, dop int, p *mapping.Placement, pw power.Watts, wcet float64) error {
	if !e.chip.Budget.Reserve(pw) {
		return fmt.Errorf("core: budget reservation raced for %s", app)
	}
	for _, d := range p.Domains {
		if err := e.chip.AssignDomain(d, app.ID, vdd); err != nil {
			return err
		}
	}
	g := app.Graph(dop)
	// Walk the placement in task order, not map order: PlaceTask errors must
	// surface identically on every run (bit-identical metrics contract).
	tasks := make([]appmodel.TaskID, 0, len(p.TaskTile))
	for task := range p.TaskTile {
		tasks = append(tasks, task)
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i] < tasks[j] })
	for _, task := range tasks {
		if err := e.chip.PlaceTask(p.TaskTile[task], app.ID, int(task), g.Tasks[task].Activity); err != nil {
			return err
		}
	}

	ra := &runningApp{
		app:       app,
		graph:     g,
		placement: p,
		vdd:       vdd,
		dop:       dop,
		freq:      e.chip.Node.Frequency(vdd),
		power:     pw,
		mappedAt:  e.now,
	}
	// Build the app's NoC flows: one per APG edge between distinct tiles,
	// at the demand rate that ships the edge volume over the app's
	// estimated execution time.
	for _, edge := range g.Edges {
		src, dst := p.TaskTile[edge.Src], p.TaskTile[edge.Dst]
		if src == dst || edge.Volume <= 0 {
			continue
		}
		rate := edge.Volume / appmodel.FlitBytes / (wcet * appmodel.RouterHz)
		ra.flows = append(ra.flows, noc.Flow{App: app.ID, Src: src, Dst: dst, Rate: rate})
		ra.flowEdges = append(ra.flowEdges, edge)
	}
	e.running[app.ID] = ra

	// Measure the network with all active flows and compute this app's
	// communication delays and makespan.
	delays, avgLat, err := e.measureNoC(ra)
	if err != nil {
		return err
	}
	ra.avgLat = avgLat
	makespan, err := sched.SPMDMakespan(g, sched.Config{
		Freq:              ra.freq,
		Delay:             delays,
		SyncCyclesPerTask: app.Bench.SyncCyclesPerTask(dop),
	})
	if err != nil {
		return err
	}
	ra.completionTime = e.now + makespan
	e.push(ra.completionTime, evCompletion, app.ID)

	o := e.outcomes[app.ID]
	o.Vdd = vdd
	o.DoP = dop
	o.MappedAt = e.now
	o.WaitTime = e.now - app.Arrival
	o.AvgPacketLatency = avgLat

	e.tel.mapped.Inc()
	e.tel.waitS.Observe(o.WaitTime)
	e.timeline.Record(obs.TimelineEvent{Name: "map", TS: e.now, App: app.ID, Arg: int64(dop)})

	// Paper §5.1: PSN is sampled when an application begins execution.
	_, err = e.samplePSN()
	return err
}

// complete finishes a running application.
func (e *Engine) complete(ra *runningApp) error {
	delete(e.running, ra.app.ID)
	e.chip.ReleaseApp(ra.app.ID)
	e.chip.Budget.Release(ra.power)

	o := e.outcomes[ra.app.ID]
	o.State = StateCompleted
	o.CompletedAt = e.now
	o.VEs = ra.ves
	o.EnergyJ = float64(ra.power) * (e.now - ra.mappedAt)
	o.DeadlineMet = e.now <= ra.app.AbsDeadline()+1e-9
	if e.now > e.metrics.TotalTime {
		e.metrics.TotalTime = e.now
	}

	// The app's residency as one span, plus the unmap instant.
	e.timeline.Record(obs.TimelineEvent{Name: "app", TS: ra.mappedAt, Dur: e.now - ra.mappedAt, App: ra.app.ID, Arg: int64(ra.ves)})
	e.timeline.Record(obs.TimelineEvent{Name: "unmap", TS: e.now, App: ra.app.ID})

	// Re-measure the network for the remaining apps' router activity and
	// take the unmap-event PSN sample (paper §5.1).
	if _, _, err := e.measureNoC(nil); err != nil {
		return err
	}
	_, err := e.samplePSN()
	return err
}

// activeFlows gathers all running apps' flows in app ID order and returns
// the flow list plus, for the requested app, the index range of its flows.
// The sort keeps map iteration order out of the flow list: the windows
// would measure the same (noc.TestFlowOrderPermutes), but a run must not
// depend on it, and parmvet's det analyzer flags the unsorted range. The
// returned slice aliases e.flowsBuf and is only valid until the next
// activeFlows call.
func (e *Engine) activeFlows(forApp *runningApp) ([]noc.Flow, int, int) {
	ids := e.idsBuf[:0]
	for id := range e.running {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	e.idsBuf = ids
	flows := e.flowsBuf[:0]
	start, end := -1, -1
	for _, id := range ids {
		ra := e.running[id]
		if forApp != nil && ra == forApp {
			start = len(flows)
		}
		flows = append(flows, ra.flows...)
		if forApp != nil && ra == forApp {
			end = len(flows)
		}
	}
	e.flowsBuf = flows
	return flows, start, end
}

// measureNoC measures the network with all active flows (see
// nocWindow.measure), refreshes the chip-wide router utilization, and — if
// forApp is non-nil — returns its per-edge communication delay function and
// average packet latency in cycles.
func (e *Engine) measureNoC(forApp *runningApp) (sched.CommDelay, float64, error) {
	flows, start, end := e.activeFlows(forApp)
	e.routerUtil = nil
	if len(flows) == 0 {
		return nil, 0, nil
	}
	res, err := e.win.measure(flows, &e.env)
	if err != nil {
		return nil, 0, err
	}
	e.routerUtil = res.RouterUtil

	if forApp == nil {
		return nil, 0, nil
	}

	// Per-edge delay: flit count times achieved cycles-per-flit (>= 1, the
	// link rate), plus the measured packet latency for the first packet.
	type edgeKey struct{ src, dst appmodel.TaskID }
	delays := make(map[edgeKey]float64, end-start)
	totLat, nLat := 0.0, 0
	for i := start; i < end; i++ {
		fs := res.Flows[i]
		edge := forApp.flowEdges[i-start]
		flow := flows[i]
		flits := edge.Volume / appmodel.FlitBytes
		cpf := 1.0
		if fs.DeliveredFlits > 0 {
			achieved := float64(fs.DeliveredFlits) / float64(res.Cycles)
			if achieved < flow.Rate {
				// The flow sustained less than its demand: congestion
				// stretches the transfer proportionally.
				cpf = flow.Rate / achieved
			}
		} else if flow.Rate > 0 {
			cpf = 10 // starved flow: heavily penalized
		}
		lat := fs.AvgPacketLatency()
		if lat == 0 {
			// No packet completed in the window; approximate with the
			// zero-load hop latency. The chip mesh and the NoC mesh have
			// identical geometry (NewEngine copies the dimensions).
			lat = float64(e.chip.Mesh.ManhattanDist(flow.Src, flow.Dst) + noc.FlitsPerPacket)
		}
		totLat += lat
		nLat++
		delays[edgeKey{edge.Src, edge.Dst}] = (flits*cpf + lat) / appmodel.RouterHz
	}
	delayFn := func(edge appmodel.Edge) float64 {
		return delays[edgeKey{edge.Src, edge.Dst}]
	}
	avg := 0.0
	if nLat > 0 {
		avg = totLat / float64(nLat)
	}
	return delayFn, avg, nil
}

// periodicSample takes the scheduled PSN sample, charges voltage-emergency
// rollbacks to apps whose domains exceeded the threshold, and reschedules.
func (e *Engine) periodicSample() error {
	s, err := e.samplePSN()
	if err != nil {
		return err
	}
	if s != nil {
		if e.tel.domainVEs != nil {
			for d, p := range s.DomainPeak {
				if p > pdn.VEThreshold {
					e.tel.domainVE(d).Inc()
				}
			}
		}
		ids := make([]int, 0, len(e.running))
		for id := range e.running {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			ra := e.running[id]
			peak := 0.0
			for _, d := range ra.placement.Domains {
				if s.DomainPeak[d] > peak {
					peak = s.DomainPeak[d]
				}
			}
			if peak <= pdn.VEThreshold {
				continue
			}
			n := legacyVECount(peak)
			e.tel.ves.Add(uint64(n))
			e.timeline.Record(obs.TimelineEvent{Name: "ve", TS: e.now, App: id, Arg: int64(n)})
			ra.ves += n
			e.outcomes[id].VEs = ra.ves // keep outcomes current for apps that never finish
			penalty := float64(n) * sched.RollbackPenalty(ra.freq)
			ra.completionTime += penalty
			e.push(ra.completionTime, evCompletion, id)
		}
	}
	e.scheduleSample(e.now + samplePeriod)
	return nil
}

// legacyVECount is the closed-form VE count charged per over-threshold
// sample: exceedance-proportional — deeper noise crosses the margin on more
// switching events per interval — and clamped at 8. Callers only invoke it
// for peaks above pdn.VEThreshold, so the count is at least 1.
func legacyVECount(peak float64) int {
	n := 1 + int((peak/pdn.VEThreshold-1)*8)
	if n > 8 {
		n = 8
	}
	return n
}

// samplePSN solves the PDN for all active domains, updates sensors and
// aggregates. It returns nil when nothing is running. Map/unmap events call
// it directly: their samples charge no VE penalties, which accrue at the
// periodic rate (periodicSample).
func (e *Engine) samplePSN() (*chip.PSNSample, error) {
	if len(e.running) == 0 {
		e.lastSampleT = e.now
		return nil, nil
	}
	s, err := e.chip.SamplePSN(e.routerUtil)
	if err != nil {
		return nil, err
	}
	for t := range s.TilePeak {
		e.sensor.Record(t, s.TilePeak[t])
		e.env.PSN[t] = e.sensor.Read(t)
	}
	e.tel.sensorSamples.Add(uint64(len(s.TilePeak)))
	e.timeline.Record(obs.TimelineEvent{Name: "sample", TS: e.now, App: -1, Arg: int64(len(e.running))})
	if p := s.ChipPeak(); p > e.metrics.PeakPSN {
		e.metrics.PeakPSN = p
	}
	dt := e.now - e.lastSampleT
	if dt > 0 {
		e.psnTimeIntegral += s.ActiveAvg() * dt
		e.psnActiveTime += dt
	}
	e.lastSampleT = e.now
	e.metrics.Samples++
	e.recordTrace(s.ChipPeak(), s.ActiveAvg(), s.DomainPeak)
	return s, nil
}
