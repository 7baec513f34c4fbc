package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Compare verdicts.
const (
	verdictWithin     = "within bound"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// worsening is how much worse b is than a, as a share of a, in def's
// direction; negative when b is better.
func worsening(def metricDef, a, b float64) float64 {
	if a == 0 {
		if b == a {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if def.Better == "higher" {
		d = -d
	}
	return d
}

// verdict judges one end-to-end metric of one workload from its values over
// the baseline's runs (a) and the candidate's (b). When either side's
// run-to-run spread is wider than the bound the medians cannot be told
// apart, unless every candidate run beats every baseline run.
func verdict(def metricDef, a, b []float64) string {
	if spread(a) > def.Bound || spread(b) > def.Bound {
		for _, x := range a {
			for _, y := range b {
				if worsening(def, x, y) >= 0 {
					return verdictUnresolved
				}
			}
		}
		return verdictBetter
	}
	switch w := worsening(def, median(a), median(b)); {
	case w > def.Bound:
		return verdictWorse
	case -w > def.Bound:
		return verdictBetter
	default:
		return verdictWithin
	}
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultsSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultsSchema)
	}
	return &f, nil
}

// values collects one metric over a workload's runs.
func values(wr workloadResults, name string) []float64 {
	var vs []float64
	for _, r := range wr.Runs {
		if mv, ok := r.Metrics[name]; ok {
			vs = append(vs, mv.Value)
		}
	}
	return vs
}

// compareFiles prints a verdict for every (workload, end-to-end metric) pair
// the two results files share and exits 1 if any is worse, or if a run of
// the candidate failed its output checks.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResults(pathA)
	if err == nil {
		var b *resultsFile
		if b, err = readResults(pathB); err == nil {
			return compareResults(a, b, stdout)
		}
	}
	fmt.Fprintf(stderr, "parmbench: %v\n", err)
	return 2
}

func compareResults(a, b *resultsFile, stdout io.Writer) int {
	code := 0
	fmt.Fprintf(stdout, "%-18s %-18s %12s %12s %9s %8s  %s\n", "workload", "metric", "base", "new", "worse by", "spread", "verdict")
	for _, wb := range b.Workloads {
		for _, r := range wb.Runs {
			if !r.Correct {
				fmt.Fprintf(stdout, "%-18s failed its output checks (%d of %d ops)\n", wb.Name, r.Failed, r.Attempted)
				code = 1
			}
		}
		var wa *workloadResults
		for i := range a.Workloads {
			if a.Workloads[i].Name == wb.Name {
				wa = &a.Workloads[i]
			}
		}
		if wa == nil {
			fmt.Fprintf(stdout, "%-18s not in the baseline\n", wb.Name)
			continue
		}
		for _, def := range endToEnd {
			va, vb := values(*wa, def.Name), values(wb, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(def, va, vb)
			if v == verdictWorse {
				code = 1
			}
			fmt.Fprintf(stdout, "%-18s %-18s %12.6g %12.6g %+8.2f%% %7.2f%%  %s\n", wb.Name, def.Name,
				median(va), median(vb), 100*worsening(def, median(va), median(vb)),
				100*math.Max(spread(va), spread(vb)), v)
		}
	}
	return code
}
