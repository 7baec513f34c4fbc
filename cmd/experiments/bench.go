package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"parm/internal/appmodel"
	"parm/internal/core"
	"parm/internal/geom"
	"parm/internal/noc"
	"parm/internal/pdn"
	"parm/internal/power"
)

// The -bench harness measures the key solver and engine hot paths with
// wall-clock timing and writes them to a JSON trajectory file
// (BENCH_parm.json), so CI can archive one point per commit and perf
// regressions show up as a series, not an anecdote. The numbers are
// machine-dependent; the derived ratios (phasor speedup, cache-hit speedup)
// are the portable signal.
//
// Wall-clock time is what this harness measures; its two clock reads carry
// audited //parm:det annotations and never reach simulated metrics.

// benchResult is one measured benchmark.
type benchResult struct {
	// Name identifies the benchmark (testing-style slash-separated).
	Name string `json:"name"`
	// Iters is the number of timed iterations.
	Iters int `json:"iters"`
	// NsPerOp is the mean wall-clock cost of one iteration.
	NsPerOp float64 `json:"ns_per_op"`
}

// benchReport is the BENCH_parm.json schema.
type benchReport struct {
	Schema string `json:"schema"`
	GoOS   string `json:"goos"`
	GoArch string `json:"goarch"`
	CPUs   int    `json:"cpus"`
	// Results holds the raw timings in measurement order.
	Results []benchResult `json:"results"`
	// Derived holds machine-portable ratios computed from Results.
	Derived map[string]float64 `json:"derived"`
}

// measure times fn until it has both a minimum duration and a minimum
// iteration count, testing.B style but without the testing machinery (the
// harness runs under `go run`).
func measure(name string, minIters int, minTime time.Duration, fn func() error) (benchResult, error) {
	// One untimed warm-up to populate scratch buffers and caches.
	if err := fn(); err != nil {
		return benchResult{}, fmt.Errorf("%s: %w", name, err)
	}
	iters := 0
	var elapsed time.Duration
	for iters < minIters || elapsed < minTime {
		start := time.Now() //parm:det wall time is what this harness measures
		if err := fn(); err != nil {
			return benchResult{}, fmt.Errorf("%s: %w", name, err)
		}
		elapsed += time.Since(start) //parm:det wall time is what this harness measures
		iters++
	}
	return benchResult{
		Name:    name,
		Iters:   iters,
		NsPerOp: float64(elapsed.Nanoseconds()) / float64(iters),
	}, nil
}

// benchLoads is the fully loaded mixed-class domain BenchmarkDomainSolve
// uses: the inner-loop input of chip-wide PSN sampling.
func benchLoads(p power.NodeParams) [pdn.DomainTiles]pdn.TileLoad {
	var occ [pdn.DomainTiles]pdn.TileOccupant
	for i := range occ {
		class := pdn.High
		if i%2 == 1 {
			class = pdn.Low
		}
		occ[i] = pdn.TileOccupant{IAvg: p.TileCurrent(0.5, 0.9, 0.4), Class: class, Staggered: true}
	}
	return pdn.BuildLoads(occ)
}

// benchNoCFlows is a Fig 6-shaped flow set: many flows, each far below link
// capacity, matching the sparse traffic the engine's measurement windows
// actually see during the paper workloads.
func benchNoCFlows() []noc.Flow {
	rates := []float64{0.004, 0.002, 0.008, 0.001, 0.006}
	var flows []noc.Flow
	for i := 0; i < 50; i++ {
		src := geom.TileID((i * 7) % 60)
		dst := geom.TileID((i*13 + 5) % 60)
		if src == dst {
			dst = (dst + 1) % 60
		}
		flows = append(flows, noc.Flow{App: i % 8, Src: src, Dst: dst, Rate: rates[i%len(rates)]})
	}
	return flows
}

// runBench measures the trajectory benchmarks and writes the JSON report to
// outPath. seed and numApps shape the engine workload (flags shared with
// the figure experiments).
func runBench(outPath string, numApps int, seed int64, verbose func(string, ...interface{})) error {
	p := power.MustParams(power.Node7)
	loads := benchLoads(p)
	rep := benchReport{
		Schema:  "parm-bench/v1",
		GoOS:    runtime.GOOS,
		GoArch:  runtime.GOARCH,
		CPUs:    runtime.GOMAXPROCS(0),
		Derived: map[string]float64{},
	}
	add := func(r benchResult, err error) error {
		if err != nil {
			return err
		}
		rep.Results = append(rep.Results, r)
		verbose("  %-34s %10.0f ns/op  (%d iters)", r.Name, r.NsPerOp, r.Iters)
		return nil
	}
	lookup := func(name string) float64 {
		for _, r := range rep.Results {
			if r.Name == name {
				return r.NsPerOp
			}
		}
		return 0
	}

	// Domain solve, cache-miss path, per mode: the BenchmarkDomainSolve
	// counterpart (uncached Solver, warm scratch + electrical caches).
	verbose("bench: domain solve (cache miss)")
	for _, m := range []pdn.Mode{pdn.ModeRK4, pdn.ModeExpm, pdn.ModePhasor} {
		cfg := pdn.Config{Params: p, Vdd: 0.5, Mode: m}
		s := pdn.NewSolver(nil)
		err := add(measure("domain_solve/"+m.String(), 50, 300*time.Millisecond, func() error {
			_, err := s.SimulateDomain(cfg, loads)
			return err
		}))
		if err != nil {
			return err
		}
	}

	// Domain solve, cache-hit path: what repeated candidate evaluations in
	// Algorithm 1 actually pay once a signature has been solved.
	verbose("bench: domain solve (cache hit)")
	{
		cfg := pdn.Config{Params: p, Vdd: 0.5}
		s := pdn.NewSolver(pdn.NewSolveCache())
		err := add(measure("domain_solve/cache_hit", 1000, 100*time.Millisecond, func() error {
			_, err := s.SimulateDomain(cfg, loads)
			return err
		}))
		if err != nil {
			return err
		}
	}

	// NoC measurement window, cache-miss path, per strategy, on the Fig
	// 6-shaped sparse fixture: the dense reference sweep (the seed ticking
	// loop), the active-set cycle path, and the analytic closed form that
	// auto mode uses below saturation.
	verbose("bench: noc window (sparse Fig 6 fixture)")
	{
		flows := benchNoCFlows()
		cycleWindow := func(s noc.Stepping) func() error {
			return func() error {
				env := &noc.Env{PSN: make([]float64, 60)}
				n, err := noc.NewNetwork(noc.Config{Stepping: s}, noc.PANR{}, flows, env)
				if err != nil {
					return err
				}
				n.Run(1500)
				n.Measure(8000)
				return nil
			}
		}
		if err := add(measure("noc_window/dense", 10, 500*time.Millisecond, cycleWindow(noc.SteppingDense))); err != nil {
			return err
		}
		if err := add(measure("noc_window/cycle", 10, 500*time.Millisecond, cycleWindow(noc.SteppingActive))); err != nil {
			return err
		}
		err := add(measure("noc_window/analytic", 100, 300*time.Millisecond, func() error {
			env := &noc.Env{PSN: make([]float64, 60)}
			_, _, err := noc.AnalyticMeasure(noc.Config{}, noc.PANR{}, flows, env, 8000)
			return err
		}))
		if err != nil {
			return err
		}
	}

	// Full engine run (the Fig. 6 cell): PARM+PANR over a mixed sequence,
	// exact cycle-level NoC measurement vs the auto (analytic) mode.
	verbose("bench: engine run (PARM+PANR, %d mixed apps)", numApps)
	engineRun := func(mode core.NoCMode) func() error {
		return func() error {
			w, err := appmodel.Generate(appmodel.WorkloadConfig{
				Kind: appmodel.WorkloadMixed, NumApps: numApps, ArrivalGap: 0.06,
				Node: p, Seed: seed,
			})
			if err != nil {
				return err
			}
			cfg := core.Config{SoftDeadlines: true, NoCMode: mode}
			eng, err := core.NewEngine(cfg, core.MustCombo("PARM", "PANR"))
			if err != nil {
				return err
			}
			_, err = eng.Run(w)
			return err
		}
	}
	if err := add(measure("engine_run/cycle", 3, 2*time.Second, engineRun(core.NoCModeCycle))); err != nil {
		return err
	}
	if err := add(measure("engine_run/noc_auto", 3, 2*time.Second, engineRun(core.NoCModeAuto))); err != nil {
		return err
	}

	if rk4, ph := lookup("domain_solve/rk4"), lookup("domain_solve/phasor"); ph > 0 {
		rep.Derived["speedup_phasor_vs_rk4"] = rk4 / ph
	}
	if rk4, ex := lookup("domain_solve/rk4"), lookup("domain_solve/expm"); ex > 0 {
		rep.Derived["speedup_expm_vs_rk4"] = rk4 / ex
	}
	if ph, hit := lookup("domain_solve/phasor"), lookup("domain_solve/cache_hit"); hit > 0 {
		rep.Derived["speedup_cache_hit_vs_phasor"] = ph / hit
	}
	if dense, cyc := lookup("noc_window/dense"), lookup("noc_window/cycle"); cyc > 0 {
		rep.Derived["speedup_noc_cycle_vs_dense"] = dense / cyc
	}
	if dense, ana := lookup("noc_window/dense"), lookup("noc_window/analytic"); ana > 0 {
		rep.Derived["speedup_noc_analytic_vs_dense"] = dense / ana
	}
	if cyc, auto := lookup("engine_run/cycle"), lookup("engine_run/noc_auto"); auto > 0 {
		rep.Derived["speedup_engine_noc_auto_vs_cycle"] = cyc / auto
	}

	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(&rep)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	verbose("bench: wrote %s (phasor speedup %.1fx over rk4)",
		outPath, rep.Derived["speedup_phasor_vs_rk4"])
	return nil
}
