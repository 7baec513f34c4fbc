// Command experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated platform. See DESIGN.md for the
// per-experiment index and EXPERIMENTS.md for recorded paper-vs-measured
// results.
//
// Usage:
//
//	experiments                 # everything
//	experiments -fig 6          # just Fig 6 (and 7, which shares runs)
//	experiments -fig 1,3a,3b    # the characterization figures
//	experiments -apps 12 -csv   # scaled down, CSV output
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"parm/internal/core"
	"parm/internal/expr"
	"parm/internal/obs"
	"parm/internal/obs/obshttp"
	"parm/internal/reliability"
	"parm/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		figs     = flag.String("fig", "all", "comma-separated figures: 1, 3a, 3b, 6, 7, 8, overhead, darksilicon, profiles, or all; reliability is opt-in (not part of all)")
		numApps  = flag.Int("apps", 20, "applications per sequence for Figs 6-8")
		seed     = flag.Int64("seed", 42, "workload generation seed")
		trials   = flag.Int("trials", 20, "Monte-Carlo fault trials per scheme (with -fig reliability)")
		relOut   = flag.String("relout", "", "write the reliability campaign result as JSON to this file (with -fig reliability)")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		quiet    = flag.Bool("q", false, "suppress progress output")
		bench    = flag.Bool("bench", false, "run the solver/engine benchmark harness instead of the figures")
		benchOut = flag.String("benchout", "BENCH_parm.json", "benchmark JSON output path (with -bench)")
		nocMode  = flag.String("noc", "cycle", "NoC measurement mode: cycle (exact) or auto (analytic fast path below saturation)")

		metricsOut   = flag.String("metrics-out", "", "write the aggregated telemetry snapshot as JSON to this file")
		timelineOut  = flag.String("timeline", "", "write engine events as Chrome trace JSON to this file (runs interleave across parallel cells)")
		decisionsOut = flag.String("decisions-out", "", "write the mapper decision provenance log as JSON to this file (runs interleave across parallel cells)")
		serveAddr    = flag.String("serve", "", "serve live telemetry on this address (e.g. :9090): /metrics, /healthz, /snapshot, /decisions, /trace, /debug/pprof/")
	)
	flag.Parse()

	mode, err := core.ParseNoCMode(*nocMode)
	if err != nil {
		log.Fatal(err)
	}

	if *bench {
		verbose := func(format string, args ...interface{}) {
			if !*quiet {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
		}
		if err := runBench(*benchOut, *numApps, *seed, verbose); err != nil {
			log.Fatal(err)
		}
		return
	}

	want := map[string]bool{}
	for _, f := range strings.Split(*figs, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]

	opt := expr.Options{NumApps: *numApps, Seed: *seed}
	opt.Engine.NoCMode = mode
	if !*quiet {
		opt.Verbose = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	// -serve implies the full telemetry set so every endpoint has data.
	if *metricsOut != "" || *serveAddr != "" {
		opt.Telemetry = obs.NewRegistry()
	}
	if *timelineOut != "" || *serveAddr != "" {
		opt.Timeline = obs.NewTimeline(1 << 16)
	}
	if *decisionsOut != "" || *serveAddr != "" {
		opt.Decisions = obs.NewDecisionLog(1 << 14)
	}
	if *serveAddr != "" {
		srv, err := obshttp.Serve(*serveAddr, obshttp.Config{
			Registry: opt.Telemetry, Timeline: opt.Timeline, Decisions: opt.Decisions,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("telemetry listening on http://%s/metrics", srv.Addr())
	}

	emit := func(t *report.Table) {
		var err error
		if *csv {
			fmt.Printf("# %s\n", t.Title)
			err = t.WriteCSV(os.Stdout)
		} else {
			err = t.Write(os.Stdout)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	if all || want["1"] {
		t, err := expr.Fig1()
		if err != nil {
			log.Fatal(err)
		}
		emit(t)
	}
	if all || want["3a"] {
		t, err := expr.Fig3a()
		if err != nil {
			log.Fatal(err)
		}
		emit(t)
	}
	if all || want["3b"] {
		t, err := expr.Fig3b()
		if err != nil {
			log.Fatal(err)
		}
		emit(t)
	}
	if all || want["6"] || want["7"] {
		t6, t7, err := expr.Fig6and7(opt)
		if err != nil {
			log.Fatal(err)
		}
		if all || want["6"] {
			emit(t6)
		}
		if all || want["7"] {
			emit(t7)
		}
	}
	if all || want["8"] {
		t, err := expr.Fig8(opt)
		if err != nil {
			log.Fatal(err)
		}
		emit(t)
	}
	if all || want["overhead"] {
		emit(expr.OverheadTable())
	}
	if all || want["darksilicon"] {
		emit(expr.DarkSiliconTable())
	}
	if all || want["profiles"] {
		emit(expr.BenchmarkProfileTable())
	}
	if want["reliability"] {
		// Opt-in: 4 schemes x trials full engine runs with fault injection
		// (which forces fresh NoC measurements) is far heavier than the
		// figure sweeps, so "all" does not include it.
		if !*quiet {
			fmt.Fprintf(os.Stderr, "reliability: %d trials x 4 schemes, seed %d\n", *trials, *seed)
		}
		res, err := reliability.Run(reliability.Config{
			Trials:    *trials,
			Seed:      *seed,
			Telemetry: opt.Telemetry,
		})
		if err != nil {
			log.Fatal(err)
		}
		emit(res.Table())
		if *relOut != "" {
			if err := writeFile(*relOut, res.WriteJSON); err != nil {
				log.Fatal(err)
			}
		}
	}
	if opt.Telemetry != nil && *metricsOut != "" {
		if err := writeFile(*metricsOut, opt.Telemetry.WriteSnapshot); err != nil {
			log.Fatal(err)
		}
	}
	if opt.Timeline != nil && *timelineOut != "" {
		if n := opt.Timeline.Dropped(); n > 0 {
			log.Printf("timeline: %d events dropped (buffer full); earliest events are missing", n)
		}
		if n := opt.Timeline.SpanDropped(); n > 0 {
			log.Printf("timeline: %d spans dropped (ring full); earliest spans are missing", n)
		}
		if err := writeFile(*timelineOut, opt.Timeline.WriteChromeTrace); err != nil {
			log.Fatal(err)
		}
	}
	if opt.Decisions != nil && *decisionsOut != "" {
		if err := writeFile(*decisionsOut, opt.Decisions.WriteJSON); err != nil {
			log.Fatal(err)
		}
	}
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
