package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// profileLayers are the parm/internal packages a CPU profile sample can be
// charged to. A sample in any other package (geom, power, obs, and sched,
// whose makespan model takes too little time to register) is charged to
// the layer that called it.
var profileLayers = map[string]bool{
	"appmodel": true, "chip": true, "core": true, "mapping": true, "noc": true, "pdn": true,
}

// Profile buckets besides the layer names. The NoC is split at
// noc.AnalyticMeasure: samples under it are the closed form, every other NoC
// sample is cycle simulation ((*noc.Network).Run and NewNetwork).
const (
	bucketNoCCycle    = "noc.cycle"
	bucketNoCAnalytic = "noc.analytic"
	bucketGC          = "runtime.gc"
	bucketNone        = "unattributed"
)

// layerProfile is host CPU time per bucket of one CPU profile.
type layerProfile struct {
	total   time.Duration
	buckets map[string]time.Duration
}

// share is the fraction of the profile's samples in the given buckets.
func (p layerProfile) share(buckets ...string) float64 {
	var d time.Duration
	for _, b := range buckets {
		d += p.buckets[b]
	}
	return ratio(d.Seconds(), p.total.Seconds())
}

// bucketOf charges one sample, frames innermost first. Garbage collection
// anywhere on the stack (background marking, sweeping, assists) goes to the
// runtime's GC bucket; otherwise the innermost frame in a layer package
// decides; a stack with no layer frame is unattributed.
func bucketOf(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gc") || f == "runtime.bgsweep" || f == "runtime.bgscavenge" || f == "runtime._GC" {
			return bucketGC
		}
	}
	for _, f := range frames {
		rest, ok := strings.CutPrefix(f, "parm/internal/")
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(rest, ".")
		if !profileLayers[pkg] {
			continue
		}
		if pkg != "noc" {
			return pkg
		}
		for _, g := range frames {
			if strings.HasPrefix(g, "parm/internal/noc.AnalyticMeasure") {
				return bucketNoCAnalytic
			}
		}
		return bucketNoCCycle
	}
	return bucketNone
}

// parseTraces reduces the text of `go tool pprof -traces`: a header, then
// one block per distinct stack, each opened by a separator line and listing
// the sample time beside the innermost frame and the callers below it.
func parseTraces(r io.Reader) (layerProfile, error) {
	p := layerProfile{buckets: map[string]time.Duration{}}
	var frames []string
	var value time.Duration
	started, wantValue := false, false
	flush := func() {
		if len(frames) > 0 {
			b := bucketOf(frames)
			p.buckets[b] += value
			p.total += value
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
			started, wantValue = true, true
		case !started || line == "":
		case wantValue:
			v, frame, _ := strings.Cut(line, " ")
			d, err := time.ParseDuration(v)
			if err != nil {
				return p, fmt.Errorf("pprof traces: sample value %q: %w", v, err)
			}
			value, wantValue = d, false
			frames = append(frames, strings.TrimSuffix(strings.TrimSpace(frame), " (inline)"))
		default:
			frames = append(frames, strings.TrimSuffix(line, " (inline)"))
		}
	}
	flush()
	return p, sc.Err()
}

// reduceProfile runs `go tool pprof -traces` on a CPU profile and reduces
// its output.
func reduceProfile(path string) (layerProfile, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return layerProfile{}, fmt.Errorf("go tool pprof -traces %s: %v: %s", path, err, errb.String())
	}
	return parseTraces(&out)
}

// profileMetrics derives the per-layer host times from a traced phase's
// profile; counts holds the phase's per-operation counts (layerCounts).
func profileMetrics(p layerProfile, counts map[string]float64, ops int) map[string]float64 {
	secs := func(b string) float64 { return p.buckets[b].Seconds() / float64(ops) }
	cycleS, pdnS := secs(bucketNoCCycle), secs("pdn")
	return map[string]float64{
		"noc.cycle_s":             cycleS,
		"noc.analytic_s":          secs(bucketNoCAnalytic),
		"noc.ns_per_cycle":        ratio(cycleS, counts["noc.sim_cycles"]) * 1e9,
		"noc.ms_per_cycle_window": ratio(cycleS, counts["noc.cycle_windows"]) * 1e3,
		"noc.share":               p.share(bucketNoCCycle, bucketNoCAnalytic),
		"chip.self_s":             secs("chip"),
		"pdn.solve_s":             pdnS,
		"pdn.us_per_solve":        ratio(pdnS, counts["pdn.solves"]) * 1e6,
		"core.self_s":             secs("core"),
		"appmodel.self_s":         secs("appmodel"),
		"runtime.gc_s":            secs(bucketGC),
		"trace.unattributed_frac": p.share(bucketNone),
	}
}
