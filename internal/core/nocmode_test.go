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
// reference; auto answers uncongested windows analytically on the exact
// flows and measures its congested fallbacks over fallbackWindowCycles
// under soft deadlines and windowCycles under hard ones. The bounds are the
// engine-level drift contract documented in DESIGN.md §11, and they hold
// for every row: under hard deadlines both modes must make the same drop
// decisions within one app, or a flipped drop would reshape the rest of the
// run and void the continuous bounds.
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
		name string
		kind appmodel.WorkloadKind
		soft bool
	}{
		{"compute-soft", appmodel.WorkloadCompute, true},
		{"comm-soft", appmodel.WorkloadComm, true},
		{"mixed-soft", appmodel.WorkloadMixed, true},
		{"mixed-hard", appmodel.WorkloadMixed, false},
		{"comm-hard", appmodel.WorkloadComm, false},
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

// TestAutoFallbackLength pins the window lengths of NoCModeAuto: a light
// flow set is answered analytically over windowCycles with no warmup, and a
// saturated one falls back to cycle simulation, after fallbackWarmupCycles
// and measured over fallbackWindowCycles under soft deadlines, and after
// warmupCycles and measured over windowCycles under hard ones. Each window's
// lengths must show in noc/warmup_cycles and noc/measured_cycles.
func TestAutoFallbackLength(t *testing.T) {
	fw, err := Combo("PARM", "XY")
	if err != nil {
		t.Fatal(err)
	}
	light := []noc.Flow{{App: 1, Src: 3, Dst: 27, Rate: 0.02}, {App: 1, Src: 27, Dst: 41, Rate: 0.01}}
	// 24 flows at 0.6 flits/cycle into one tile saturate its ejection port.
	var hot []noc.Flow
	for i := 0; i < 24; i++ {
		hot = append(hot, noc.Flow{App: i % 4, Src: geom.TileID(2 * i), Dst: 27, Rate: 0.6})
	}
	for _, tc := range []struct {
		soft             bool
		warmup, fallback int
	}{{true, fallbackWarmupCycles, fallbackWindowCycles}, {false, warmupCycles, windowCycles}} {
		e, err := NewEngine(Config{SoftDeadlines: tc.soft, NoCMode: NoCModeAuto}, fw)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		e.EnableTelemetry(reg)
		// lengths checks what one window added to the cycle counters.
		var seenWarmup, seenMeasured uint64
		lengths := func(set string, warmup, measured int) {
			t.Helper()
			w, m := reg.Counter("noc/warmup_cycles").Value(), reg.Counter("noc/measured_cycles").Value()
			if w-seenWarmup != uint64(warmup) || m-seenMeasured != uint64(measured) {
				t.Errorf("soft=%v: %s set added %d warmup and %d measured cycles, want %d and %d",
					tc.soft, set, w-seenWarmup, m-seenMeasured, warmup, measured)
			}
			seenWarmup, seenMeasured = w, m
		}
		res, err := e.win.measure(light, &e.env)
		if err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("noc/analytic_windows").Value(); got != 1 || res.Cycles != windowCycles {
			t.Errorf("soft=%v: light set took %d analytic windows over %d cycles, want 1 over %d",
				tc.soft, got, res.Cycles, windowCycles)
		}
		lengths("light", 0, windowCycles)
		if res, err = e.win.measure(hot, &e.env); err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("noc/analytic_fallbacks").Value(); got != 1 || res.Cycles != tc.fallback {
			t.Errorf("soft=%v: saturated set took %d fallbacks over %d cycles, want 1 over %d",
				tc.soft, got, res.Cycles, tc.fallback)
		}
		lengths("saturated", tc.warmup, tc.fallback)
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
