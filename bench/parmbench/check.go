package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"parm/bench/golden"
	"parm/internal/appmodel"
	"parm/internal/core"
	"parm/internal/report"
)

// The engine-level drift contract of NoCModeAuto against cycle simulation
// (core.TestNoCModesAgree, DESIGN.md §11): relative drift of total time,
// mean packet latency and average PSN.
const (
	driftTotalTime     = 0.05
	driftPacketLatency = 0.35
	driftAvgPSN        = 0.10
)

// cycleRef is the part of a cycle-mode run an auto-mode run of the same
// input is held to.
type cycleRef struct {
	TotalTime         float64 `json:"total_time"`
	MeanPacketLatency float64 `json:"mean_packet_latency"`
	AvgPSN            float64 `json:"avg_psn"`
	Completed         int     `json:"completed"`
	Dropped           int     `json:"dropped"`
}

func refOf(m *core.Metrics) cycleRef {
	return cycleRef{m.TotalTime, m.MeanPacketLatency, m.AvgPSN, m.Completed, m.Dropped}
}

// The golden file formats. Apps records the sequence length the references
// were taken at; other lengths fall back to first-run references.
type digestsFile struct {
	Apps    int                         `json:"apps"`
	Digests map[string]map[int64]string `json:"digests"`
}

type autoRefFile struct {
	Apps      int                `json:"apps"`
	Reference map[int64]cycleRef `json:"reference"`
}

type cellsFile struct {
	Apps  int                  `json:"apps"`
	Seed  int64                `json:"seed"`
	Cells map[string][3]string `json:"cells"`
}

// checker decides whether one operation's output is correct. A seed with a
// known digest must reproduce it byte for byte; the first run of any other
// seed must pass the invariants and becomes the digest its repeats are held
// to. Auto-mode runs must also stay within the drift contract of the
// cycle-mode reference of the same seed.
type checker struct {
	apps    int
	soft    bool
	digests map[int64]string
	refs    map[int64]cycleRef // nil unless the workload runs in auto mode
	cells   map[string][3]string
	// drift is the largest relative drift seen on an anchor input, per
	// contract quantity (total time, packet latency, average PSN).
	drift [3]float64
}

// newChecker loads the golden references that apply to w at apps apps.
func newChecker(w workload, apps int) (*checker, error) {
	c := &checker{apps: apps, soft: w.Soft, digests: map[int64]string{}}
	switch {
	case w.Sweep:
		var f cellsFile
		if err := json.Unmarshal(golden.Fig67Cells, &f); err != nil {
			return nil, fmt.Errorf("golden fig67 cells: %w", err)
		}
		if f.Apps == apps && f.Seed == sweepSeed {
			c.cells = f.Cells
		}
	case w.Mode == core.NoCModeAuto:
		var f autoRefFile
		if err := json.Unmarshal(golden.AutoReference, &f); err != nil {
			return nil, fmt.Errorf("golden auto reference: %w", err)
		}
		c.refs = map[int64]cycleRef{}
		if f.Apps == apps {
			for s, r := range f.Reference {
				c.refs[s] = r
			}
		}
	default:
		var f digestsFile
		if err := json.Unmarshal(golden.CycleDigests, &f); err != nil {
			return nil, fmt.Errorf("golden cycle digests: %w", err)
		}
		if f.Apps == apps {
			for s, d := range f.Digests[w.Name] {
				c.digests[s] = d
			}
		}
	}
	return c, nil
}

// digest is the SHA-256 of the metrics' JSON form.
func digest(m *core.Metrics) (string, error) {
	var b bytes.Buffer
	if err := m.WriteJSON(&b); err != nil {
		return "", err
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// check validates one run's metrics for seed. anchor marks the fixed
// inputs whose drift is reported.
func (c *checker) check(seed int64, m *core.Metrics, anchor bool) error {
	d, err := digest(m)
	if err != nil {
		return err
	}
	if want, ok := c.digests[seed]; ok {
		if d != want {
			return fmt.Errorf("seed %d: metrics digest %.12s, want %.12s", seed, d, want)
		}
	} else {
		if err := c.invariants(m); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		c.digests[seed] = d
	}
	if c.refs == nil {
		return nil
	}
	ref, ok := c.refs[seed]
	if !ok {
		return fmt.Errorf("seed %d: no cycle reference", seed)
	}
	return c.checkDrift(seed, ref, m, anchor)
}

func (c *checker) checkDrift(seed int64, ref cycleRef, m *core.Metrics, anchor bool) error {
	if m.Completed+m.Dropped != ref.Completed+ref.Dropped {
		return fmt.Errorf("seed %d: %d apps finished, cycle mode %d", seed, m.Completed+m.Dropped, ref.Completed+ref.Dropped)
	}
	if d := m.Dropped - ref.Dropped; d < -1 || d > 1 {
		return fmt.Errorf("seed %d: %d apps dropped, cycle mode %d", seed, m.Dropped, ref.Dropped)
	}
	for i, q := range []struct {
		name     string
		got, ref float64
		tol      float64
	}{
		{"total time", m.TotalTime, ref.TotalTime, driftTotalTime},
		{"mean packet latency", m.MeanPacketLatency, ref.MeanPacketLatency, driftPacketLatency},
		{"average PSN", m.AvgPSN, ref.AvgPSN, driftAvgPSN},
	} {
		rel := math.Abs(q.got-q.ref) / q.ref
		if anchor && rel > c.drift[i] {
			c.drift[i] = rel
		}
		if !(rel <= q.tol) {
			return fmt.Errorf("seed %d: %s drifted %.3f from cycle mode (contract %g)", seed, q.name, rel, q.tol)
		}
	}
	return nil
}

// invariants are the properties every run's metrics must have.
func (c *checker) invariants(m *core.Metrics) error {
	finitePos := func(name string, v float64) error {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("%s = %g, want finite and positive", name, v)
		}
		return nil
	}
	switch {
	case len(m.Apps) != c.apps:
		return fmt.Errorf("%d app outcomes, want %d", len(m.Apps), c.apps)
	case m.Completed+m.Dropped+m.Unfinished != c.apps:
		return fmt.Errorf("completed %d + dropped %d + unfinished %d != %d apps", m.Completed, m.Dropped, m.Unfinished, c.apps)
	case m.Unfinished != 0:
		return fmt.Errorf("%d apps unfinished", m.Unfinished)
	case c.soft && m.Dropped != 0:
		return fmt.Errorf("%d apps dropped under soft deadlines", m.Dropped)
	case m.Samples <= 0:
		return fmt.Errorf("no PSN samples")
	}
	for _, q := range []struct {
		name string
		v    float64
	}{
		{"total time", m.TotalTime}, {"peak PSN", m.PeakPSN}, {"average PSN", m.AvgPSN},
		{"mean packet latency", m.MeanPacketLatency},
	} {
		if err := finitePos(q.name, q.v); err != nil {
			return err
		}
	}
	if m.PeakPSN >= 1 || m.AvgPSN > m.PeakPSN {
		return fmt.Errorf("PSN out of range: peak %g, average %g", m.PeakPSN, m.AvgPSN)
	}
	return nil
}

// tableCells keys the Fig 6 and Fig 7 tables by "<framework>/<kind>": total
// time, peak PSN and average PSN as printed.
func tableCells(t6, t7 *report.Table) (map[string][3]string, error) {
	kinds := appmodel.WorkloadKinds
	if len(t6.Rows) != len(t7.Rows) {
		return nil, fmt.Errorf("fig 6 has %d rows, fig 7 %d", len(t6.Rows), len(t7.Rows))
	}
	cells := map[string][3]string{}
	for i, r6 := range t6.Rows {
		r7 := t7.Rows[i]
		if len(r6) != 1+len(kinds) || len(r7) != 1+2*len(kinds) || r6[0] != r7[0] {
			return nil, fmt.Errorf("unexpected table row %q / %q", r6, r7)
		}
		for j, k := range kinds {
			cells[r6[0]+"/"+k.String()] = [3]string{r6[1+j], r7[1+2*j], r7[2+2*j]}
		}
	}
	return cells, nil
}

// metricCells formats one sweep cell's metrics as the tables print them.
func metricCells(m *core.Metrics) [3]string {
	f := func(v float64) string { return fmt.Sprintf("%.4g", v) }
	return [3]string{f(m.TotalTime), f(m.PeakPSN * 100), f(m.AvgPSN * 100)}
}

// checkCells compares a sweep's cells with the golden tables, or with the
// first sweep when no golden applies.
func (c *checker) checkCells(cells map[string][3]string) error {
	if c.cells == nil {
		c.cells = cells
		return nil
	}
	if len(cells) != len(c.cells) {
		return fmt.Errorf("sweep has %d cells, want %d", len(cells), len(c.cells))
	}
	for k, want := range c.cells {
		if got := cells[k]; got != want {
			return fmt.Errorf("sweep cell %s = %q, want %q", k, got, want)
		}
	}
	return nil
}

// tally counts the operations whose output was checked and those that failed
// (errored or failed their check).
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.failures) < 10 {
			t.failures = append(t.failures, err.Error())
		}
	}
}

// writeGolden regenerates the three golden files in dir from the current
// code: cycle-mode digests and references at the anchor seeds, and the
// paper sweep's tables.
func writeGolden(dir string, logf func(string, ...interface{})) error {
	digests := digestsFile{Apps: paperApps, Digests: map[string]map[int64]string{}}
	auto := autoRefFile{Apps: paperApps, Reference: map[int64]cycleRef{}}
	for _, w := range workloads {
		if w.Sweep || w.Mode != core.NoCModeCycle {
			continue
		}
		// A fresh checker: the goldens being replaced must not apply.
		c := &checker{apps: paperApps, soft: w.Soft, digests: map[int64]string{}}
		r := newRunner(w, paperApps)
		for _, seed := range anchorSeeds {
			m, _, err := r.single(seed, core.NoCModeCycle, nil, 0)
			if err == nil {
				err = c.check(seed, m, true)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			if w.Name == "fig6_mixed_cycle" {
				auto.Reference[seed] = refOf(m)
			}
			logf("golden: %s seed %d", w.Name, seed)
		}
		digests.Digests[w.Name] = c.digests
	}
	sweep, _ := workloadByName("fig67_sweep")
	cells, _, err := newRunner(sweep, paperApps).sweep(nil)
	if err != nil {
		return err
	}
	for name, v := range map[string]interface{}{
		"cycle_digests.json":  digests,
		"auto_reference.json": auto,
		"fig67_cells.json":    cellsFile{Apps: paperApps, Seed: sweepSeed, Cells: cells},
	} {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
