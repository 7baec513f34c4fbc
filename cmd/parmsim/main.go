// Command parmsim runs one PARM simulation: a workload sequence executed on
// the modeled 60-core 7nm CMP under a chosen mapping framework and NoC
// routing scheme, printing run metrics and per-application outcomes.
//
// Usage:
//
//	parmsim -mapper PARM -routing PANR -workload mixed -apps 20 -gap 0.1 -seed 42 [-soft] [-v]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"parm/internal/appmodel"
	"parm/internal/core"
	"parm/internal/obs"
	"parm/internal/obs/obshttp"
	"parm/internal/power"
	"parm/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("parmsim: ")

	var (
		mapper   = flag.String("mapper", "PARM", "mapping framework: PARM or HM")
		routing  = flag.String("routing", "PANR", "NoC routing: XY, ICON, or PANR")
		workload = flag.String("workload", "mixed", "workload kind: compute, comm, or mixed")
		numApps  = flag.Int("apps", 20, "number of applications in the sequence")
		gap      = flag.Float64("gap", 0.1, "inter-application arrival gap in seconds")
		seed     = flag.Int64("seed", 42, "workload generation seed")
		soft     = flag.Bool("soft", false, "advisory deadlines: never drop applications")
		dspb     = flag.Float64("dspb", 65, "dark silicon power budget in watts")
		verbose  = flag.Bool("v", false, "print per-application outcomes")
		jsonOut  = flag.Bool("json", false, "emit metrics as JSON instead of tables")
		traceCSV = flag.String("trace", "", "write the PSN time series as CSV to this file")
		loadPath = flag.String("load", "", "load the workload from a JSON file instead of generating it")
		explain  = flag.Bool("explain", false, "print Algorithm 1's selection trace for the first application")
		savePath = flag.String("save", "", "save the generated workload as JSON to this file")
		nocMode  = flag.String("noc", "cycle", "NoC measurement mode: cycle (exact) or auto (analytic fast path below saturation, simulated fallback windows above it: 2,000-cycle fallbacks under soft deadlines, 8,000-cycle ones under hard deadlines)")

		metricsOut   = flag.String("metrics-out", "", "write the telemetry counter snapshot as JSON to this file")
		timelineOut  = flag.String("timeline", "", "write the engine event timeline as Chrome trace JSON to this file (load at ui.perfetto.dev)")
		decisionsOut = flag.String("decisions-out", "", "write the mapper decision provenance log as JSON to this file")
		serveAddr    = flag.String("serve", "", "serve live telemetry on this address (e.g. :9090): /metrics, /healthz, /snapshot, /decisions, /trace, /debug/pprof/")
	)
	flag.Parse()

	if err := checkFlags(*dspb); err != nil {
		log.Fatal(err)
	}
	fw, err := core.Combo(*mapper, *routing)
	if err != nil {
		log.Fatal(err)
	}
	node := power.MustParams(power.Node7)

	var w *appmodel.Workload
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			log.Fatal(err)
		}
		w, err = appmodel.ReadWorkloadJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
	} else {
		kind, err := parseKind(*workload)
		if err != nil {
			log.Fatal(err)
		}
		w, err = appmodel.Generate(appmodel.WorkloadConfig{
			Kind: kind, NumApps: *numApps, ArrivalGap: *gap, Node: node, Seed: *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	if *savePath != "" {
		if err := writeFile(*savePath, w.WriteJSON); err != nil {
			log.Fatal(err)
		}
	}

	cfg := core.Config{SoftDeadlines: *soft}
	cfg.Chip.DsPB = power.Watts(*dspb)
	cfg.NoCMode, err = core.ParseNoCMode(*nocMode)
	if err != nil {
		log.Fatal(err)
	}
	if *explain {
		steps, err := core.ExplainOnEmptyChip(cfg, fw, w.Apps[0])
		if err != nil {
			log.Fatal(err)
		}
		et := report.NewTable(fmt.Sprintf("Algorithm 1 selection trace for %s (deadline %.1f ms)",
			w.Apps[0], w.Apps[0].RelDeadline*1e3),
			"vdd(V)", "dop", "wcet(ms)", "deadline", "power(W)", "dspb", "mapping", "chosen")
		mark := func(ok bool) string {
			if ok {
				return "ok"
			}
			return "fail"
		}
		for _, st := range steps {
			deadline := mark(st.DeadlineOK)
			if st.BestEffort {
				deadline = "best-effort"
			} else if !st.DeadlineOK {
				et.AddRow(st.Vdd, st.DoP, st.WCET*1e3, deadline, "-", "-", "-", "")
				continue
			}
			chosen := ""
			if st.Chosen {
				chosen = "<== selected"
			}
			mapping := "-"
			if st.MappingTried {
				mapping = mark(st.MappingOK)
			}
			et.AddRow(st.Vdd, st.DoP, st.WCET*1e3, deadline, float64(st.PowerW), mark(st.PowerOK), mapping, chosen)
		}
		if err := et.Write(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	eng, err := core.NewEngine(cfg, fw)
	if err != nil {
		log.Fatal(err)
	}
	var trace *core.Trace
	if *traceCSV != "" {
		trace = eng.EnableTrace()
	}
	// -serve implies the full telemetry set so every endpoint has data.
	var registry *obs.Registry
	if *metricsOut != "" || *serveAddr != "" {
		registry = obs.NewRegistry()
		eng.EnableTelemetry(registry)
	}
	var timeline *obs.Timeline
	if *timelineOut != "" || *serveAddr != "" {
		timeline = obs.NewTimeline(1 << 16)
		eng.AttachTimeline(timeline)
	}
	var decisions *obs.DecisionLog
	if *decisionsOut != "" || *serveAddr != "" {
		decisions = obs.NewDecisionLog(1 << 14)
		eng.AttachDecisions(decisions)
	}
	if *serveAddr != "" {
		srv, err := obshttp.Serve(*serveAddr, obshttp.Config{
			Registry: registry, Timeline: timeline, Decisions: decisions,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("telemetry listening on http://%s/metrics", srv.Addr())
	}
	m, err := eng.Run(w)
	if err != nil {
		log.Fatal(err)
	}
	if registry != nil && *metricsOut != "" {
		if err := writeFile(*metricsOut, registry.WriteSnapshot); err != nil {
			log.Fatal(err)
		}
	}
	if timeline != nil && *timelineOut != "" {
		if timeline.Dropped() > 0 {
			log.Printf("timeline: %d events dropped (buffer full); earliest events are missing", timeline.Dropped())
		}
		if err := writeFile(*timelineOut, timeline.WriteChromeTrace); err != nil {
			log.Fatal(err)
		}
	}
	if decisions != nil && *decisionsOut != "" {
		if err := writeFile(*decisionsOut, decisions.WriteJSON); err != nil {
			log.Fatal(err)
		}
	}
	if *traceCSV != "" {
		if err := writeFile(*traceCSV, trace.WriteCSV); err != nil {
			log.Fatal(err)
		}
	}
	if *jsonOut {
		if err := m.WriteJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	t := report.NewTable(fmt.Sprintf("%s on %s workload (%d apps, seed %d)",
		m.Framework, m.Workload, len(w.Apps), *seed), "metric", "value")
	t.AddRow("total execution time (s)", m.TotalTime)
	t.AddRow("peak PSN (%)", m.PeakPSN*100)
	t.AddRow("average PSN (%)", m.AvgPSN*100)
	t.AddRow("applications completed", m.Completed)
	t.AddRow("applications dropped", m.Dropped)
	t.AddRow("voltage emergencies", m.TotalVEs)
	t.AddRow("mean packet latency (cycles)", m.MeanPacketLatency)
	t.AddRow("total energy (J)", m.TotalEnergyJ)
	if err := t.Write(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if *verbose {
		fmt.Println()
		pt := report.NewTable("per-application outcomes",
			"app", "bench", "state", "vdd(V)", "dop", "wait(ms)", "turnaround(ms)", "VEs", "deadlineMet")
		for _, o := range m.Apps {
			turn := 0.0
			if o.State == core.StateCompleted {
				turn = (o.CompletedAt - o.App.Arrival) * 1e3
			}
			pt.AddRow(o.App.ID, o.App.Bench.Name, o.State.String(), o.Vdd, o.DoP,
				o.WaitTime*1e3, turn, o.VEs, o.DeadlineMet)
		}
		if err := pt.Write(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}

// checkFlags validates the flags that shape the run, so that a bad value
// fails before anything is simulated. A zero -dspb would otherwise select
// the chip's 65 W default.
func checkFlags(dspb float64) error {
	if !(dspb > 0) || math.IsInf(dspb, 1) {
		return fmt.Errorf("-dspb %g: want a positive finite power budget in watts", dspb)
	}
	return nil
}

// writeFile creates path and streams write into it, folding the close error
// into the result.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func parseKind(s string) (appmodel.WorkloadKind, error) {
	switch s {
	case "compute":
		return appmodel.WorkloadCompute, nil
	case "comm":
		return appmodel.WorkloadComm, nil
	case "mixed":
		return appmodel.WorkloadMixed, nil
	default:
		return 0, fmt.Errorf("unknown workload %q (want compute, comm, or mixed)", s)
	}
}
