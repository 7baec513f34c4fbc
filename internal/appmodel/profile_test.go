package appmodel

import (
	"math"
	"testing"
	"testing/quick"

	"parm/internal/pdn"
	"parm/internal/power"
)

func np7() power.NodeParams { return power.MustParams(power.Node7) }

func TestActivityFactor(t *testing.T) {
	if ActivityFactor(pdn.High) != HighCoreActivity {
		t.Error("High activity factor wrong")
	}
	if ActivityFactor(pdn.Low) != LowCoreActivity {
		t.Error("Low activity factor wrong")
	}
	if ActivityFactor(pdn.Idle) != 0 {
		t.Error("Idle activity factor not zero")
	}
}

// WCET decreases as Vdd rises (higher clock).
func TestWCETMonotonicInVdd(t *testing.T) {
	p := np7()
	for _, b := range Benchmarks() {
		prev := math.Inf(1)
		for _, v := range p.VddLevels() {
			w := b.WCETEstimate(p, v, 16)
			if w >= prev {
				t.Errorf("%s: WCET not decreasing at %.1fV", b.Name, v)
			}
			prev = w
		}
	}
}

// WCET decreases from DoP 4 to DoP 32 at fixed Vdd: the parallelism lever
// Algorithm 1 exploits (§3.5).
func TestWCETImprovesWithDoP(t *testing.T) {
	p := np7()
	for _, b := range Benchmarks() {
		w4 := b.WCETEstimate(p, 0.5, 4)
		w32 := b.WCETEstimate(p, 0.5, 32)
		if w32 >= w4 {
			t.Errorf("%s: WCET(32)=%g not below WCET(4)=%g", b.Name, w32, w4)
		}
		// The gain must be material (at least 1.5x) for the low-Vdd
		// high-DoP strategy to work.
		if w4/w32 < 1.5 {
			t.Errorf("%s: DoP speedup only %.2fx", b.Name, w4/w32)
		}
	}
}

func TestWCETInfiniteBelowThreshold(t *testing.T) {
	p := np7()
	b := Benchmarks()[0]
	if w := b.WCETEstimate(p, p.VTh, 16); w < 1e100 {
		t.Errorf("WCET at threshold voltage = %g, want effectively infinite", w)
	}
}

func TestWCETCacheConsistency(t *testing.T) {
	p := np7()
	b := Benchmarks()[1]
	w1 := b.WCETEstimate(p, 0.6, 20)
	w2 := b.WCETEstimate(p, 0.6, 20)
	if w1 != w2 {
		t.Error("cached WCET differs from first computation")
	}
}

// The estimate caches must key on every node parameter: two parameter sets
// that share a Node each get their own uncached value, in whatever order
// they are first asked for.
func TestEstimateCachesKeyOnNodeParams(t *testing.T) {
	p := np7()
	fast := p
	fast.FMax *= 2
	b, err := BenchmarkByName("cholesky")
	if err != nil {
		t.Fatal(err)
	}
	const vdd, dop = 0.6, 16
	uncached := func(p power.NodeParams) (float64, power.Watts) {
		g := b.Graph(dop)
		var w power.Watts
		for _, task := range g.Tasks {
			w += p.TilePower(vdd, ActivityFactor(task.Activity), routerUtilEstimate(b.Kind))
		}
		return g.SPMDTimeEstimate(p.Frequency(vdd), b.SyncCyclesPerTask(dop)), w
	}
	for _, tc := range []struct {
		name string
		p    power.NodeParams
	}{
		{"default", p},
		{"FMax doubled", fast},
		{"default again", p},
	} {
		wantW, wantP := uncached(tc.p)
		if got := b.WCETEstimate(tc.p, vdd, dop); got != wantW {
			t.Errorf("%s: WCETEstimate = %g s, uncached %g s", tc.name, got, wantW)
		}
		if got := b.PowerEstimate(tc.p, vdd, dop); got != wantP {
			t.Errorf("%s: PowerEstimate = %g W, uncached %g W", tc.name, got, wantP)
		}
	}
	// Algorithm 1 calls both for every candidate; once cached, neither
	// builds an APG again.
	if n := testing.AllocsPerRun(10, func() { b.PowerEstimate(p, vdd, dop) }); n != 0 {
		t.Errorf("cached PowerEstimate allocates %g times per call, want 0", n)
	}
}

// An uncached estimate reads its table benchmark's APG from the per-DoP
// graph cache, so a new operating point builds no graph; a benchmark that
// differs from its table entry gets its own graph, never the entry's.
func TestEstimateGraphCache(t *testing.T) {
	p := np7()
	p.FMax *= 2 // not the node's table parameters: every call is uncached
	b, err := BenchmarkByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	const vdd, dop = 0.7, 24
	if n := testing.AllocsPerRun(10, func() { b.WCETEstimate(p, vdd, dop) }); n > 1 {
		t.Errorf("uncached WCETEstimate allocates %g times per call, want at most 1 (the per-task times)", n)
	}
	heavier := b
	heavier.WorkGCycles *= 2
	want := heavier.Graph(dop).SPMDTimeEstimate(p.Frequency(vdd), heavier.SyncCyclesPerTask(dop))
	if got := heavier.WCETEstimate(p, vdd, dop); got != want {
		t.Errorf("WCETEstimate of a changed fft = %g s, want %g s from its own graph", got, want)
	}
	if want == b.WCETEstimate(p, vdd, dop) {
		t.Errorf("doubling fft's work left its WCET at %g s", want)
	}
}

// The SPMD estimate lower-bounds at the slowest thread's compute time.
func TestSPMDTimeEstimateBounds(t *testing.T) {
	b := Benchmarks()[0]
	g := b.Graph(16)
	f := 2e9
	est := g.SPMDTimeEstimate(f, 0)
	maxWork := 0.0
	for _, task := range g.Tasks {
		if task.WorkCycles > maxWork {
			maxWork = task.WorkCycles
		}
	}
	if est < maxWork/f {
		t.Errorf("estimate %g below slowest thread %g", est, maxWork/f)
	}
	// Adding sync overhead increases the estimate.
	if g.SPMDTimeEstimate(f, 1e6) <= est {
		t.Error("sync overhead did not increase estimate")
	}
}

func TestEdgeCommCycles(t *testing.T) {
	e := Edge{Volume: 1600}
	want := 1600.0 / FlitBytes / estFlitsPerCycle
	if got := EdgeCommCycles(e); math.Abs(got-want) > 1e-9 {
		t.Errorf("EdgeCommCycles = %g, want %g", got, want)
	}
}

func TestPowerEstimateTrends(t *testing.T) {
	p := np7()
	b := Benchmarks()[0]
	// Grows with Vdd and with DoP.
	if b.PowerEstimate(p, 0.8, 16) <= b.PowerEstimate(p, 0.4, 16) {
		t.Error("power not increasing in Vdd")
	}
	if b.PowerEstimate(p, 0.5, 32) <= b.PowerEstimate(p, 0.5, 16) {
		t.Error("power not increasing in DoP")
	}
	// The paper's core trade-off: NTC at DoP 32 consumes less power than a
	// mid-high voltage at DoP 16.
	if b.PowerEstimate(p, p.VNTC, 32) >= b.PowerEstimate(p, 0.7, 16) {
		t.Error("NTC wide parallelism not cheaper than 0.7V at DoP 16")
	}
}

func TestAppGraphCaching(t *testing.T) {
	b := Benchmarks()[2]
	app := &App{ID: 1, Bench: b}
	g1 := app.Graph(16)
	g2 := app.Graph(16)
	if g1 != g2 {
		t.Error("App.Graph did not cache")
	}
	if app.Graph(8) == g1 {
		t.Error("different DoP returned the same graph")
	}
}

func TestAppStringAndDeadline(t *testing.T) {
	app := &App{ID: 3, Bench: Benchmarks()[1], Arrival: 1.5, RelDeadline: 0.25}
	if app.String() != "app3(fft)" {
		t.Errorf("String = %q", app.String())
	}
	if math.Abs(app.AbsDeadline()-1.75) > 1e-12 {
		t.Errorf("AbsDeadline = %g", app.AbsDeadline())
	}
}

func TestSyncCyclesPerTaskGrowsWithDoP(t *testing.T) {
	b := Benchmarks()[0]
	if b.SyncCyclesPerTask(32) <= b.SyncCyclesPerTask(4) {
		t.Error("sync overhead not growing with DoP")
	}
}

// Property: WCET is positive and finite for every valid operating point.
func TestWCETAlwaysPositive(t *testing.T) {
	p := np7()
	bs := Benchmarks()
	f := func(bi, vi, di uint8) bool {
		b := bs[int(bi)%len(bs)]
		v := p.VddLevels()[int(vi)%5]
		d := DoPValues()[int(di)%8]
		w := b.WCETEstimate(p, v, d)
		return w > 0 && w < 10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
