// Package expr reproduces every figure of the paper's evaluation (§5) on
// the simulated platform: Fig. 1 (peak PSN across technology nodes),
// Fig. 3a (peak PSN vs Vdd), Fig. 3b (task-pair interference), Fig. 6
// (total execution time), Fig. 7 (peak and average PSN), Fig. 8
// (applications completed across arrival rates), and the §4.4 router
// overhead table. Each experiment returns a report.Table whose rows are the
// series the paper plots.
package expr

import (
	"fmt"
	"runtime"

	"parm/internal/appmodel"
	"parm/internal/core"
	"parm/internal/noc"
	"parm/internal/obs"
	"parm/internal/pdn"
	"parm/internal/power"
	"parm/internal/report"
)

// Options scales the runtime experiments (Figs. 6-8).
type Options struct {
	// NumApps is the sequence length. Zero selects the paper's 20.
	NumApps int
	// Seed selects the workload sequences. The paper uses three random
	// sequences; we report one deterministic sequence per kind.
	Seed int64
	// Engine overrides the engine configuration (zero fields default).
	Engine core.Config
	// Verbose, when non-nil, receives progress lines.
	Verbose func(format string, args ...interface{})
	// Telemetry, when non-nil, is attached to every engine an experiment
	// creates. The registry is concurrency-safe, so counters aggregate
	// across the parallel cells of a sweep.
	Telemetry *obs.Registry
	// Timeline, when non-nil, receives engine events from every cell.
	// Cells run concurrently, so events from different runs interleave in
	// the buffer; attach a timeline when per-run ordering matters only for
	// single-cell invocations.
	Timeline *obs.Timeline
	// Decisions, when non-nil, receives mapper Algorithm 1 decision
	// provenance from every cell. Like Timeline, records from parallel
	// cells interleave.
	Decisions *obs.DecisionLog
}

func (o Options) withDefaults() Options {
	if o.NumApps == 0 {
		o.NumApps = 20
	}
	if o.Verbose == nil {
		o.Verbose = func(string, ...interface{}) {}
	}
	return o
}

// highLoads builds a domain fully loaded with High-activity tasks at vdd,
// unmanaged (aligned phases): the stress pattern behind Figs. 1 and 3a.
func highLoads(p power.NodeParams, vdd power.Volts, staggered bool) [pdn.DomainTiles]pdn.TileLoad {
	var occ [pdn.DomainTiles]pdn.TileOccupant
	for i := range occ {
		occ[i] = pdn.TileOccupant{
			IAvg:      p.TileCurrent(vdd, appmodel.HighCoreActivity, 0.4),
			Class:     pdn.High,
			Staggered: staggered,
		}
	}
	return pdn.BuildLoads(occ)
}

// commLoads builds a communication-intensive domain: lower core activity
// but high router utilization.
func commLoads(p power.NodeParams, vdd power.Volts) [pdn.DomainTiles]pdn.TileLoad {
	var occ [pdn.DomainTiles]pdn.TileOccupant
	for i := range occ {
		class := pdn.Low
		if i%2 == 0 {
			class = pdn.High
		}
		occ[i] = pdn.TileOccupant{
			IAvg:  p.TileCurrent(vdd, appmodel.ActivityFactor(class), 0.8),
			Class: class,
		}
	}
	return pdn.BuildLoads(occ)
}

// Fig1 reproduces Fig. 1: peak supply noise percentage, relative to the
// nominal near-threshold supply voltage, across technology nodes, for a
// fully loaded unmanaged domain.
func Fig1() (*report.Table, error) {
	t := report.NewTable("Fig 1: peak PSN (% of NTC Vdd) across technology nodes",
		"node", "vntc(V)", "peakPSN(%)", "margin(%)")
	for _, n := range power.Nodes {
		p := power.MustParams(n)
		res, err := pdn.SimulateDomain(pdn.Config{Params: p, Vdd: p.VNTC}, highLoads(p, p.VNTC, false))
		if err != nil {
			return nil, fmt.Errorf("fig1 %s: %w", n, err)
		}
		t.AddRow(n.String(), p.VNTC, res.DomainPeak()*100, pdn.VEThreshold*100)
	}
	return t, nil
}

// Fig3a reproduces Fig. 3a: peak PSN (as % of supply voltage) observed in a
// domain versus Vdd, for communication- and compute-intensive workloads.
func Fig3a() (*report.Table, error) {
	p := power.MustParams(power.Node7)
	t := report.NewTable("Fig 3a: peak PSN (%) in a domain vs Vdd (7nm)",
		"vdd(V)", "compute(%)", "comm(%)")
	for _, v := range p.VddLevels() {
		rc, err := pdn.SimulateDomain(pdn.Config{Params: p, Vdd: v}, highLoads(p, v, false))
		if err != nil {
			return nil, err
		}
		rm, err := pdn.SimulateDomain(pdn.Config{Params: p, Vdd: v}, commLoads(p, v))
		if err != nil {
			return nil, err
		}
		t.AddRow(v, rc.DomainPeak()*100, rm.DomainPeak()*100)
	}
	return t, nil
}

// Fig3b reproduces Fig. 3b: normalized PSN due to interference between
// pairs of tasks of different switching activity (High/Low), separated by
// Manhattan distances of 1 and 2 hops inside a domain. Interference is the
// relative increase of a tile's peak PSN over running its task alone,
// normalized to the worst pair (High-Low at 1 hop).
func Fig3b() (*report.Table, error) {
	p := power.MustParams(power.Node7)
	const vdd = 0.5
	cfg := pdn.Config{Params: p, Vdd: vdd}

	load := func(class pdn.Class) pdn.TileOccupant {
		return pdn.TileOccupant{
			IAvg:  p.TileCurrent(vdd, appmodel.ActivityFactor(class), 0.3),
			Class: class,
		}
	}
	solo := func(class pdn.Class, slot int) (float64, error) {
		var occ [pdn.DomainTiles]pdn.TileOccupant
		occ[slot] = load(class)
		r, err := pdn.SimulateDomain(cfg, pdn.BuildLoads(occ))
		return r.PeakPSN[slot], err
	}
	interference := func(a, b pdn.Class, sa, sb int) (float64, error) {
		var occ [pdn.DomainTiles]pdn.TileOccupant
		occ[sa], occ[sb] = load(a), load(b)
		r, err := pdn.SimulateDomain(cfg, pdn.BuildLoads(occ))
		if err != nil {
			return 0, err
		}
		soloA, err := solo(a, sa)
		if err != nil {
			return 0, err
		}
		soloB, err := solo(b, sb)
		if err != nil {
			return 0, err
		}
		relA := (r.PeakPSN[sa] - soloA) / soloA
		relB := (r.PeakPSN[sb] - soloB) / soloB
		if relB > relA {
			relA = relB
		}
		if relA < 0 {
			relA = 0
		}
		return relA, nil
	}

	type pair struct {
		name   string
		a, b   pdn.Class
		sa, sb int
	}
	pairs := []pair{
		{"High-High 1hop", pdn.High, pdn.High, 0, 1},
		{"High-Low 1hop", pdn.High, pdn.Low, 0, 1},
		{"Low-Low 1hop", pdn.Low, pdn.Low, 0, 1},
		{"High-High 2hop", pdn.High, pdn.High, 0, 3},
		{"High-Low 2hop", pdn.High, pdn.Low, 0, 3},
		{"Low-Low 2hop", pdn.Low, pdn.Low, 0, 3},
	}
	raw := make([]float64, len(pairs))
	maxV := 0.0
	for i, pr := range pairs {
		v, err := interference(pr.a, pr.b, pr.sa, pr.sb)
		if err != nil {
			return nil, err
		}
		raw[i] = v
		if v > maxV {
			maxV = v
		}
	}
	t := report.NewTable("Fig 3b: normalized PSN interference between task pairs (7nm, 0.5V)",
		"pair", "normalizedPSN")
	for i, pr := range pairs {
		norm := 0.0
		if maxV > 0 {
			norm = raw[i] / maxV
		}
		t.AddRow(pr.name, norm)
	}
	return t, nil
}

// RunMetrics executes one (framework, workload kind, arrival gap) cell and
// returns the metrics.
func RunMetrics(opt Options, fw core.Framework, kind appmodel.WorkloadKind, gap float64) (*core.Metrics, error) {
	opt = opt.withDefaults()
	w, err := appmodel.Generate(appmodel.WorkloadConfig{
		Kind: kind, NumApps: opt.NumApps, ArrivalGap: gap, Node: power.MustParams(power.Node7), Seed: opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(opt.Engine, fw)
	if err != nil {
		return nil, err
	}
	if opt.Telemetry != nil {
		eng.EnableTelemetry(opt.Telemetry)
	}
	if opt.Timeline != nil {
		eng.AttachTimeline(opt.Timeline)
	}
	if opt.Decisions != nil {
		eng.AttachDecisions(opt.Decisions)
	}
	return eng.Run(w)
}

// cell identifies one (framework, workload, gap) simulation in a parallel
// sweep.
type cell struct {
	fw   core.Framework
	kind appmodel.WorkloadKind
	gap  float64
}

// runCells executes the cells concurrently (each simulation is independent
// and deterministic) and returns the metrics in input order. The worker
// count is bounded so a laptop is not oversubscribed.
func runCells(opt Options, cells []cell) ([]*core.Metrics, error) {
	type result struct {
		idx int
		m   *core.Metrics
		err error
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(cells) {
		workers = len(cells)
	}
	jobs := make(chan int)
	results := make(chan result)
	for w := 0; w < workers; w++ {
		go func() {
			// Audited: each job is a pure function of its index, writes a
			// fresh Metrics, and is re-keyed by idx on collection, so worker
			// scheduling order cannot reach any output.
			//parm:det
			for idx := range jobs {
				c := cells[idx]
				m, err := RunMetrics(opt, c.fw, c.kind, c.gap)
				results <- result{idx: idx, m: m, err: err}
			}
		}()
	}
	go func() {
		for i := range cells {
			jobs <- i
		}
		close(jobs)
	}()
	out := make([]*core.Metrics, len(cells))
	errs := make([]error, len(cells))
	for range cells {
		// Audited: every result is stored under its own cell index, so the
		// arrival order cannot reach out or the reported error.
		//parm:det
		r := <-results
		errs[r.idx] = r.err
		out[r.idx] = r.m
	}
	// Report the failure of the lowest-index cell, not of whichever worker
	// happened to finish first: the chosen error must not depend on
	// scheduling.
	for i, err := range errs {
		if err != nil {
			c := cells[i]
			return nil, fmt.Errorf("%s/%s/%g: %w", c.fw.Name, c.kind, c.gap, err)
		}
	}
	return out, nil
}

// Fig6and7 runs the six frameworks over the three workload kinds at the
// paper's oversubscribed arrival rate and returns the Fig. 6 table (total
// execution time) and the Fig. 7 table (peak and average PSN).
func Fig6and7(opt Options) (*report.Table, *report.Table, error) {
	opt = opt.withDefaults()
	t6 := report.NewTable(fmt.Sprintf("Fig 6: total execution time (s) of %d apps", opt.NumApps),
		"framework", "compute", "comm", "mixed")
	t7 := report.NewTable("Fig 7: peak / average PSN (%)",
		"framework", "compute-peak", "compute-avg", "comm-peak", "comm-avg", "mixed-peak", "mixed-avg")
	// Fig 6/7 measure the time to execute every application: deadlines are
	// advisory here (no drops); Fig 8 studies drops separately.
	opt.Engine.SoftDeadlines = true
	kinds := appmodel.WorkloadKinds
	fws := core.EvaluationFrameworks()
	var cells []cell
	for _, fw := range fws {
		for _, k := range kinds {
			cells = append(cells, cell{fw: fw, kind: k, gap: 0.05})
		}
	}
	ms, err := runCells(opt, cells)
	if err != nil {
		return nil, nil, err
	}
	for i, fw := range fws {
		times := make([]float64, 0, len(kinds))
		psn := make([]float64, 0, 2*len(kinds))
		for j, k := range kinds {
			m := ms[i*len(kinds)+j]
			opt.Verbose("fig6/7 %s %s: total=%.3fs peak=%.2f%% avg=%.2f%% done=%d/%d ves=%d",
				fw.Name, k, m.TotalTime, m.PeakPSN*100, m.AvgPSN*100, m.Completed, len(m.Apps), m.TotalVEs)
			times = append(times, m.TotalTime)
			psn = append(psn, m.PeakPSN*100, m.AvgPSN*100)
		}
		t6.AddRow(fw.Name, times[0], times[1], times[2])
		t7.AddRow(fw.Name, psn[0], psn[1], psn[2], psn[3], psn[4], psn[5])
	}
	return t6, t7, nil
}

// Fig8 runs the four frameworks the paper compares across arrival rates
// (0.2, 0.1, 0.05 s) and two workload kinds, reporting applications
// completed successfully.
func Fig8(opt Options) (*report.Table, error) {
	opt = opt.withDefaults()
	fws := []core.Framework{
		core.MustCombo("HM", "XY"),
		core.MustCombo("PARM", "XY"),
		core.MustCombo("PARM", "ICON"),
		core.MustCombo("PARM", "PANR"),
	}
	gaps := []float64{0.2, 0.1, 0.05}
	kinds := []appmodel.WorkloadKind{appmodel.WorkloadCompute, appmodel.WorkloadComm}
	var cells []cell
	for _, fw := range fws {
		for _, k := range kinds {
			for _, g := range gaps {
				cells = append(cells, cell{fw: fw, kind: k, gap: g})
			}
		}
	}
	ms, err := runCells(opt, cells)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(fmt.Sprintf("Fig 8: applications completed (of %d) per arrival rate", opt.NumApps),
		"framework", "workload", "0.2s", "0.1s", "0.05s")
	idx := 0
	for _, fw := range fws {
		for _, k := range kinds {
			var done []int
			for _, g := range gaps {
				m := ms[idx]
				idx++
				opt.Verbose("fig8 %s %s gap=%.2fs: done=%d/%d", fw.Name, k, g, m.Completed, len(m.Apps))
				done = append(done, m.Completed)
			}
			t.AddRow(fw.Name, k.String(), done[0], done[1], done[2])
		}
	}
	return t, nil
}

// OverheadTable reproduces the §4.4 router overhead accounting.
func OverheadTable() *report.Table {
	o := noc.PANROverhead()
	t := report.NewTable("PANR router overhead at 7nm (paper §4.4)",
		"quantity", "value")
	t.AddRow("register bits per router", o.RegisterBits)
	t.AddRow("64-bit comparators per router", o.ComparatorCount)
	t.AddRow("added power (mW)", o.PowerMilliwatts)
	t.AddRow("added power (%)", o.PowerPercent)
	t.AddRow("added area (um^2)", o.AreaUm2)
	t.AddRow("added area (%)", o.AreaPercent)
	t.AddRow("sensor network area (um^2)", o.SensorNetworkAreaUm2)
	t.AddRow("hop selection latency (cycles, masked)", o.HopSelectionCycles)
	return t
}
