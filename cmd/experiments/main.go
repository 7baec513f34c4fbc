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
	"slices"
	"strings"

	"parm/internal/core"
	"parm/internal/expr"
	"parm/internal/obs"
	"parm/internal/obs/obshttp"
	"parm/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		figs    = flag.String("fig", "all", "comma-separated figures, from: "+strings.Join(figNames, ", "))
		numApps = flag.Int("apps", 20, "applications per sequence for Figs 6-8")
		seed    = flag.Int64("seed", 42, "workload generation seed")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		quiet   = flag.Bool("q", false, "suppress progress output")
		nocMode = flag.String("noc", "cycle", "NoC measurement mode: cycle (exact) or auto (analytic fast path below saturation, simulated fallback windows above it: a 250-cycle warmup and 2,000 measured cycles under soft deadlines, 1,500 and 8,000 under hard deadlines, as in cycle mode)")

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
	want, err := checkFlags(*figs, *numApps)
	if err != nil {
		log.Fatal(err)
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
	if opt.Telemetry != nil && *metricsOut != "" {
		if err := writeFile(*metricsOut, opt.Telemetry.WriteSnapshot); err != nil {
			log.Fatal(err)
		}
	}
	if opt.Timeline != nil && *timelineOut != "" {
		if n := opt.Timeline.Dropped(); n > 0 {
			log.Printf("timeline: %d events dropped (buffer full); earliest events are missing", n)
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

// figNames are the -fig values; "all" selects every one.
var figNames = []string{"1", "3a", "3b", "6", "7", "8", "overhead", "darksilicon", "profiles", "all"}

// checkFlags validates the flags that shape the runs and returns the set of
// selected figures, so that a bad value fails before anything is simulated.
func checkFlags(figs string, numApps int) (map[string]bool, error) {
	if numApps < 1 {
		return nil, fmt.Errorf("-apps %d: need at least one application", numApps)
	}
	want := map[string]bool{}
	for _, f := range strings.Split(figs, ",") {
		f = strings.TrimSpace(f)
		if !slices.Contains(figNames, f) {
			return nil, fmt.Errorf("-fig %q: want one of %s", f, strings.Join(figNames, ", "))
		}
		want[f] = true
	}
	return want, nil
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
