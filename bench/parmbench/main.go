// Command parmbench is the end-to-end benchmark of the PARM reproduction.
//
// Each workload runs in its own child process, one at a time, with
// GOMAXPROCS set to the number of CPUs. The child times only the public entry
// points appmodel.Generate, core.NewEngine, (*core.Engine).Run and
// expr.Fig6and7, checks every output, and reports; the parent adds the
// child's peak RSS and, for a traced run, the per-layer host time from the
// child's CPU profile.
//
// From the bench directory:
//
//	go run ./parmbench -seed 42               # every workload, end-to-end metrics
//	go run ./parmbench -seed 42 -trace 1      # every workload, per-layer metrics
//	go run ./parmbench -workload fig6_mixed_cycle -seed 7 -seconds 15 -trace 0
//	go run ./parmbench -compare a.json b.json # verdict per workload and metric
//
// With -workload the last line of standard output is the run's result as
// one JSON object; without it the results of every run are also written to
// -out.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"
)

const (
	// defaultSeconds is the timed phase length BENCHMARK.json gives as
	// run_seconds.
	defaultSeconds = 15
	// childTimeout kills a child that outlives any sane run.
	childTimeout = 170 * time.Second
	// artifactDir receives profiles, Chrome traces and results, relative to
	// the working directory.
	artifactDir = ".bench_build/parmbench"
	// profileHz is the traced phase's CPU profile sampling rate.
	profileHz = 500
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("parmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload and print its result as a JSON last line")
	seed := fs.Int64("seed", 42, "seed of the held-out input each single-run workload checks")
	seconds := fs.Float64("seconds", defaultSeconds, "timed phase length in seconds, in whole passes")
	traceMode := fs.Int("trace", 0, "1 runs the traced pass (per-layer metrics), 0 the end-to-end pass")
	runs := fs.Int("runs", 1, "runs of each workload when running every workload")
	out := fs.String("out", filepath.Join(artifactDir, "results.json"), "results file when running every workload")
	compare := fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
	goldenOut := fs.String("golden-out", "", "regenerate the golden files into this directory and exit")
	child := fs.Bool("child", false, "measure in this process (used by the parent)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, a ...interface{}) { fmt.Fprintf(stderr, format+"\n", a...) }
	switch {
	case *compare:
		if fs.NArg() != 2 {
			logf("usage: parmbench -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *goldenOut != "":
		if err := writeGolden(*goldenOut, logf); err != nil {
			logf("parmbench: %v", err)
			return 1
		}
		return 0
	case fs.NArg() != 0 || (*traceMode != 0 && *traceMode != 1) || *seconds < 0 || *runs < 1:
		fs.Usage()
		return 2
	}
	traced := *traceMode == 1
	if *child {
		w, ok := workloadByName(*name)
		if !ok {
			logf("parmbench: unknown workload %q", *name)
			return 2
		}
		rep, err := measure(runConfig{W: w, Apps: paperApps, Seed: *seed, Seconds: *seconds, Traced: traced, Dir: artifactDir}, logf)
		if err != nil {
			logf("parmbench: %s: %v", w.Name, err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(rep); err != nil {
			logf("parmbench: %v", err)
			return 1
		}
		return 0
	}

	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			logf("parmbench: unknown workload %q", *name)
			return 2
		}
		selected = []workload{w}
	}
	set := resultsFile{Schema: resultsSchema, Seed: *seed, Seconds: *seconds, Trace: *traceMode, GOMAXPROCS: runtime.NumCPU()}
	allCorrect := true
	var last runResult
	for _, w := range selected {
		wr := workloadResults{Name: w.Name}
		for i := 0; i < *runs; i++ {
			res, err := runWorkload(w, *seed, *seconds, traced, stderr)
			if err != nil {
				logf("parmbench: %s: %v", w.Name, err)
				return 1
			}
			printResult(stdout, w.Name, res, traced)
			allCorrect = allCorrect && res.Correct
			wr.Runs = append(wr.Runs, res)
			last = res
		}
		set.Workloads = append(set.Workloads, wr)
	}
	if *name != "" && *runs == 1 {
		// BENCHMARK.json runs one workload and reads this last line.
		b, err := json.Marshal(last)
		if err != nil {
			logf("parmbench: %v", err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
		return 0
	}
	if err := writeJSON(*out, set); err != nil {
		logf("parmbench: %v", err)
		return 1
	}
	logf("parmbench: wrote %s", *out)
	if !allCorrect {
		return 1
	}
	return 0
}

// runConfig is one measured run of one workload.
type runConfig struct {
	W       workload
	Apps    int
	Seed    int64
	Seconds float64
	Traced  bool
	Dir     string // receives the CPU profile and Chrome trace of a traced run
}

// childReport is what a child measures and hands its parent.
type childReport struct {
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Metrics     map[string]float64 `json:"metrics"`
	TracedOps   int                `json:"traced_ops,omitempty"`
	Profile     string             `json:"profile,omitempty"`
	ChromeTrace string             `json:"chrome_trace,omitempty"`
}

// measure runs one workload in this process: the held-out warm-up, the
// untraced phase, and then either the set-up timings or, for a traced run,
// a second phase of equal length under the tracer and a CPU profile.
func measure(cfg runConfig, logf func(string, ...interface{})) (*childReport, error) {
	chk, err := newChecker(cfg.W, cfg.Apps)
	if err != nil {
		return nil, err
	}
	r := newRunner(cfg.W, cfg.Apps)
	var t tally
	if !cfg.W.Sweep {
		r.prepareRefs(chk, &t, append(append([]int64(nil), anchorSeeds...), cfg.Seed))
		r.warmup(cfg.Seed, chk, &t)
	}
	seconds := cfg.Seconds
	if cfg.Traced {
		seconds /= 2
	}
	plain := r.phase(seconds, nil, chk, &t)
	rep := &childReport{}
	if !cfg.Traced {
		// Set-up is timed after the phase, on a heap that has reached its
		// working size, so that page faults of a young process do not vary
		// it.
		setupS, err := r.setupTimes(setupReps)
		if err != nil {
			return nil, err
		}
		rep.Metrics = map[string]float64{
			"setup_s":          median(setupS),
			"run_s":            typical(plain.run),
			"apps_per_s":       float64(plain.appsPerOp) / typical(plain.op),
			"alloc_mb":         float64(plain.alloc) / float64(plain.ops) / 1e6,
			"sim_total_time_s": plain.sim.totalTime / float64(plain.sim.n),
			"sim_avg_psn":      plain.sim.avgPSN / float64(plain.sim.n),
			"sim_ves":          plain.sim.ves / float64(plain.sim.n),
			"sim_completed":    plain.sim.completed / float64(plain.sim.n),
		}
	} else {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
		tr := newTracer()
		rep.Profile = filepath.Join(cfg.Dir, cfg.W.Name+".cpu.pprof")
		rep.ChromeTrace = filepath.Join(cfg.Dir, cfg.W.Name+".trace.json")
		f, err := os.Create(rep.Profile)
		if err != nil {
			return nil, err
		}
		// StartCPUProfile fixes 100 Hz, too coarse for layers under 1% of a
		// few-second phase; a rate set first wins (the runtime prints a
		// warning), and the profile records the rate it ran at.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		traced := r.phase(seconds, tr, chk, &t)
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return nil, err
		}
		if n := tr.dl.Dropped(); n > 0 {
			return nil, fmt.Errorf("decision log overflowed by %d records", n)
		}
		if err := tr.writeChrome(rep.ChromeTrace); err != nil {
			return nil, err
		}
		rep.Metrics = tr.layerCounts(traced, plain, chk)
		rep.TracedOps = traced.ops
	}
	for _, msg := range t.failures {
		logf("parmbench: %s: check failed: %s", cfg.W.Name, msg)
	}
	rep.Attempted, rep.Failed = t.attempted, t.failed
	return rep, nil
}

// metricValue and runResult are the benchmark's result format: runResult is
// the JSON object a -workload run prints as its last line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

const resultsSchema = "parmbench/v1"

// resultsFile holds every run of a set, as written to -out and read by
// -compare.
type resultsFile struct {
	Schema     string            `json:"schema"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      int               `json:"trace"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Workloads  []workloadResults `json:"workloads"`
}

type workloadResults struct {
	Name string      `json:"name"`
	Runs []runResult `json:"runs"`
}

// runWorkload measures w in a child process and completes its metrics: the
// child's peak RSS for an end-to-end run, the profile's layer times for a
// traced one.
func runWorkload(w workload, seed int64, seconds float64, traced bool, stderr io.Writer) (runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.Name,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", traceArg)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return runResult{}, fmt.Errorf("child: %w", err)
	}
	var rep childReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return runResult{}, fmt.Errorf("child report: %w", err)
	}
	if traced {
		prof, err := reduceProfile(rep.Profile)
		if err != nil {
			return runResult{}, err
		}
		for k, v := range profileMetrics(prof, rep.Metrics, rep.TracedOps) {
			rep.Metrics[k] = v
		}
		fmt.Fprintf(stderr, "parmbench: %s: chrome trace %s, profile %s\n", w.Name, rep.ChromeTrace, rep.Profile)
	} else {
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return runResult{}, errors.New("child resource usage unavailable")
		}
		rep.Metrics["max_rss_mb"] = float64(ru.Maxrss) * 1024 / 1e6
	}
	res := runResult{
		Correct: rep.Failed == 0 && rep.Attempted > 0, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: map[string]metricValue{},
	}
	for _, d := range metricDefs(traced) {
		v, ok := rep.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return runResult{}, fmt.Errorf("metric %s missing or not finite (%v)", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// printResult prints one run's metrics by name, with units.
func printResult(w io.Writer, name string, res runResult, traced bool) {
	fmt.Fprintf(w, "%s: %d ops, %d failed (error_frac %.4g), correct=%v\n",
		name, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)), res.Correct)
	for _, d := range metricDefs(traced) {
		mv := res.Metrics[d.Name]
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf(", bound %g%%", d.Bound*100)
		}
		fmt.Fprintf(w, "  %-26s %14.6g %-8s (%s is better%s)\n", d.Name, mv.Value, mv.Unit, d.Better, bound)
	}
}

func writeJSON(path string, v interface{}) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
