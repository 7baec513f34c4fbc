package core

import (
	"fmt"
	"math"
	"testing"

	"parm/internal/appmodel"
	"parm/internal/geom"
	"parm/internal/noc"
	"parm/internal/obs"
)

// TestConfigDefaults pins the withDefaults values the documentation promises,
// so doc comments and code cannot drift apart.
func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.SensorBits != 6 {
		t.Errorf("SensorBits = %d, want 6", c.SensorBits)
	}
	if c.NoCMode != NoCModeCycle {
		t.Errorf("NoCMode = %v, want cycle", c.NoCMode)
	}
}

// TestConfigValidation pins NewEngine's input contract: values that the
// defaulting would misread, or a constructor would panic on, are errors,
// while zero still selects the documented default.
func TestConfigValidation(t *testing.T) {
	fw := MustCombo("PARM", "XY")
	for _, tc := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero", Config{}, true},
		{"explicit", Config{SensorBits: 8, NoCMode: NoCModeAuto}, true},
		{"sensor-bits-16", Config{SensorBits: 16}, true},
		{"sensor-bits-17", Config{SensorBits: 17}, false},
		{"deleted-analytic-mode", Config{NoCMode: 2}, false},
		{"unknown-noc-mode", Config{NoCMode: 7}, false},
		{"negative-noc-mode", Config{NoCMode: -1}, false},
	} {
		_, err := NewEngine(tc.cfg, fw)
		if (err == nil) != tc.ok {
			t.Errorf("%s: NewEngine error = %v, want ok = %v", tc.name, err, tc.ok)
		}
	}
}

func TestParseNoCMode(t *testing.T) {
	for _, tc := range []struct {
		s    string
		want NoCMode
	}{{"cycle", NoCModeCycle}, {"auto", NoCModeAuto}} {
		got, err := ParseNoCMode(tc.s)
		if err != nil || got != tc.want {
			t.Errorf("ParseNoCMode(%q) = %v, %v", tc.s, got, err)
		}
		if got.String() != tc.s {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tc.s)
		}
	}
	for _, s := range []string{"fast", "analytic"} {
		if _, err := ParseNoCMode(s); err == nil {
			t.Errorf("unknown mode %q accepted", s)
		}
	}
}

// TestNoCModesAgree runs each workload kind under both NoC modes and bounds
// the drift the fast path may introduce. The cycle mode is the exact
// reference; auto answers uncongested windows analytically, measures its
// congested fallbacks over fallbackWindowCycles and quantizes the memo key.
// The bounds are the engine-level drift contract documented in DESIGN.md
// §11. They hold only while both modes make the same drop decisions: under
// hard deadlines on comm traffic one flipped drop reshapes the rest of the
// run (seed 50 ends 45% earlier in auto mode), so there the contract is the
// finished count and drops within one.
func TestNoCModesAgree(t *testing.T) {
	fw, err := Combo("PARM", "PANR")
	if err != nil {
		t.Fatal(err)
	}
	const (
		timeTol = 0.05
		// The closed form misses phase-locked worm collisions below
		// saturation, so latency carries the loosest bound of the contract.
		latTol = 0.35
		psnTol = 0.10
	)
	for _, wc := range []struct {
		name   string
		kind   appmodel.WorkloadKind
		soft   bool
		bounds bool // whether the continuous drift bounds apply
	}{
		{"compute-soft", appmodel.WorkloadCompute, true, true},
		{"comm-soft", appmodel.WorkloadComm, true, true},
		{"mixed-soft", appmodel.WorkloadMixed, true, true},
		{"mixed-hard", appmodel.WorkloadMixed, false, true},
		{"comm-hard", appmodel.WorkloadComm, false, false},
	} {
		for _, seed := range []int64{7, 42, 50} {
			t.Run(fmt.Sprintf("%s/seed%d", wc.name, seed), func(t *testing.T) {
				t.Parallel()
				w := genWorkload(t, wc.kind, 12, 0.05, seed)
				ref := runOne(t, Config{SoftDeadlines: wc.soft}, fw, w)
				if ref.Completed == 0 {
					t.Fatal("reference run completed nothing")
				}
				m := runOne(t, Config{SoftDeadlines: wc.soft, NoCMode: NoCModeAuto}, fw, w)
				if m.Completed+m.Dropped != ref.Completed+ref.Dropped {
					t.Errorf("%d apps finished, cycle mode %d", m.Completed+m.Dropped, ref.Completed+ref.Dropped)
				}
				// Drop decisions are discrete; allow at most one app to flip.
				if d := m.Dropped - ref.Dropped; d < -1 || d > 1 {
					t.Errorf("Dropped = %d, cycle mode %d (allowed drift 1)", m.Dropped, ref.Dropped)
				}
				if !wc.bounds {
					return
				}
				for _, q := range []struct {
					name          string
					got, ref, tol float64
				}{
					{"TotalTime", m.TotalTime, ref.TotalTime, timeTol},
					{"MeanPacketLatency", m.MeanPacketLatency, ref.MeanPacketLatency, latTol},
					{"AvgPSN", m.AvgPSN, ref.AvgPSN, psnTol},
				} {
					if rel := math.Abs(q.got-q.ref) / q.ref; !(rel <= q.tol) {
						t.Errorf("%s = %g, cycle mode %g (rel drift %.3f > %g)", q.name, q.got, q.ref, rel, q.tol)
					}
				}
			})
		}
	}
}

// TestCycleModeUnaffectedByModeField double-checks the determinism contract:
// the zero Config and an explicit NoCModeCycle produce byte-identical
// metrics (the mode field must not perturb the exact path).
func TestCycleModeUnaffectedByModeField(t *testing.T) {
	w := genWorkload(t, appmodel.WorkloadMixed, 8, 0.05, 3)
	fw, err := Combo("PARM", "ICON")
	if err != nil {
		t.Fatal(err)
	}
	a := runOne(t, Config{}, fw, w)
	b := runOne(t, Config{NoCMode: NoCModeCycle}, fw, w)
	if a.TotalTime != b.TotalTime || a.AvgPSN != b.AvgPSN || a.PeakPSN != b.PeakPSN ||
		a.Completed != b.Completed || a.MeanPacketLatency != b.MeanPacketLatency {
		t.Errorf("explicit NoCModeCycle diverged from zero config:\n %+v\n %+v", a, b)
	}
}

// TestQuantizedMemoHits exercises the quantized memo key directly: two flow
// lists whose rates differ by less than half a quantum must share one
// measurement in auto mode, and must not in cycle mode.
func TestQuantizedMemoHits(t *testing.T) {
	fw, err := Combo("PARM", "XY")
	if err != nil {
		t.Fatal(err)
	}
	// Base rates sit exactly on the quantization grid, so a perturbation
	// below quantum/2 snaps back to the same point and a full quantum moves
	// to the neighboring one.
	mkFlows := func(eps float64) []noc.Flow {
		return []noc.Flow{
			{App: 1, Src: geom.TileID(3), Dst: geom.TileID(27), Rate: 82*nocRateQuantum + eps},
			{App: 1, Src: geom.TileID(27), Dst: geom.TileID(41), Rate: 20*nocRateQuantum + eps},
		}
	}
	const eps = nocRateQuantum / 4
	for _, tc := range []struct {
		mode     NoCMode
		wantHits int
	}{{NoCModeCycle, 0}, {NoCModeAuto, 1}} {
		e, err := NewEngine(Config{NoCMode: tc.mode}, fw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.win.measure(mkFlows(0), &e.env); err != nil {
			t.Fatal(err)
		}
		if _, err := e.win.measure(mkFlows(eps), &e.env); err != nil {
			t.Fatal(err)
		}
		if e.win.hits != tc.wantHits {
			t.Errorf("%v: memo hits = %d, want %d", tc.mode, e.win.hits, tc.wantHits)
		}
		// A perturbation beyond half a quantum must miss in every mode.
		if _, err := e.win.measure(mkFlows(nocRateQuantum), &e.env); err != nil {
			t.Fatal(err)
		}
		if e.win.hits != tc.wantHits {
			t.Errorf("%v: full-quantum perturbation hit the memo", tc.mode)
		}
	}
}

// TestAnalyticTelemetryCounters checks the instrumentation split: auto mode
// counts analytic windows and saturated fallbacks separately.
func TestAnalyticTelemetryCounters(t *testing.T) {
	fw, err := Combo("PARM", "XY")
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{NoCMode: NoCModeAuto}, fw)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e.EnableTelemetry(reg)
	// Sparse flow: far below saturation, answered analytically.
	if _, err := e.win.measure([]noc.Flow{{Src: 0, Dst: 9, Rate: 0.01}}, &e.env); err != nil {
		t.Fatal(err)
	}
	// Hotspot: many flows converging on one tile saturate its ejection port.
	hot := make([]noc.Flow, 0, 8)
	for i := 1; i <= 8; i++ {
		hot = append(hot, noc.Flow{Src: geom.TileID(i), Dst: 30, Rate: 0.2})
	}
	if _, err := e.win.measure(hot, &e.env); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("noc/analytic_windows").Value(); got != 1 {
		t.Errorf("noc/analytic_windows = %d, want 1", got)
	}
	if got := reg.Counter("noc/analytic_fallbacks").Value(); got != 1 {
		t.Errorf("noc/analytic_fallbacks = %d, want 1", got)
	}
}
