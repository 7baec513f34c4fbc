package core

import (
	"math"
	"sort"
	"testing"

	"parm/internal/appmodel"
	"parm/internal/noc"
)

// cycleWindow is one window the engine simulated cycle by cycle: the
// routing, flows and sensor readings it was measured with.
type cycleWindow struct {
	routing noc.Algorithm
	flows   []noc.Flow
	psn     []float64
}

// collectCycleWindows runs fw over w under cfg and returns a copy of every
// window the run simulated cycle by cycle; in NoCModeAuto those are the
// congested fallbacks.
func collectCycleWindows(t testing.TB, cfg Config, fw Framework, w *appmodel.Workload) []cycleWindow {
	t.Helper()
	e, err := NewEngine(cfg, fw)
	if err != nil {
		t.Fatal(err)
	}
	var out []cycleWindow
	e.win.onCycleWindow = func(flows []noc.Flow, env *noc.Env) {
		cw := cycleWindow{routing: e.win.routing, flows: append([]noc.Flow(nil), flows...)}
		if env != nil {
			cw.psn = append([]float64(nil), env.PSN...)
		}
		out = append(out, cw)
	}
	if _, err := e.Run(w); err != nil {
		t.Fatal(err)
	}
	return out
}

// measureFallback runs fb on a fresh network: warmup cycles, then a
// measured window of cycles.
func measureFallback(t *testing.T, cfg noc.Config, fb cycleWindow, warmup, cycles int) *noc.Result {
	t.Helper()
	n, err := noc.NewNetwork(cfg, fb.routing, fb.flows, &noc.Env{PSN: fb.psn})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(warmup)
	return n.Measure(cycles)
}

// minRefPackets is the reference packet count from which a flow's
// throughput and latency errors are counted, as in DESIGN.md §11: below it,
// whole-packet quantization of the short window dominates.
const minRefPackets = 20

// windowError compares a short window with the reference window of the same
// flows. sumUtil is the relative error of chip-wide router activity (Σ
// RouterUtil) and router the largest absolute error of one router's
// RouterUtil; thr and lat hold the signed relative errors of per-flow
// throughput (delivered flits per cycle) and mean packet latency, for the
// flows with at least minRefPackets packets in the reference.
type windowError struct {
	sumUtil, router float64
	thr, lat        []float64
}

func compareWindows(got, ref *noc.Result) windowError {
	var e windowError
	var sg, sr float64
	for i := range ref.RouterUtil {
		sg += got.RouterUtil[i]
		sr += ref.RouterUtil[i]
		e.router = math.Max(e.router, math.Abs(got.RouterUtil[i]-ref.RouterUtil[i]))
	}
	if sr > 0 {
		e.sumUtil = math.Abs(sg-sr) / sr
	}
	for i, rf := range ref.Flows {
		if rf.DeliveredPackets < minRefPackets {
			continue
		}
		gf := got.Flows[i]
		rThr := float64(rf.DeliveredFlits) / float64(ref.Cycles)
		gThr := float64(gf.DeliveredFlits) / float64(got.Cycles)
		e.thr = append(e.thr, (gThr-rThr)/rThr)
		if gf.DeliveredPackets > 0 {
			e.lat = append(e.lat, (gf.AvgPacketLatency()-rf.AvgPacketLatency())/rf.AvgPacketLatency())
		}
	}
	return e
}

// quantile returns the q-quantile of xs (nearest rank), sorting xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// warmupErrors is the error distribution of a set of fallback windows
// measured at one warmup.
type warmupErrors struct {
	sumUtil, router []float64
	thr, lat        []float64
}

// fallbackErrors measures every window at warmup + fallbackWindowCycles and
// at the reference warmupCycles + windowCycles, and pools their errors.
func fallbackErrors(t *testing.T, cfg noc.Config, windows []cycleWindow, warmup int) warmupErrors {
	t.Helper()
	var we warmupErrors
	for _, fb := range windows {
		ref := measureFallback(t, cfg, fb, warmupCycles, windowCycles)
		got := measureFallback(t, cfg, fb, warmup, fallbackWindowCycles)
		e := compareWindows(got, ref)
		we.sumUtil = append(we.sumUtil, e.sumUtil)
		we.router = append(we.router, e.router)
		we.thr = append(we.thr, e.thr...)
		we.lat = append(we.lat, e.lat...)
	}
	return we
}

// TestFallbackWarmupError judges auto's soft-deadline fallback warmup the
// way DESIGN.md §11 judges the fallback length: window by window. It
// collects the fallback windows of 20-app PARM+PANR auto runs (mixed and
// comm, seeds 42 and 43), re-measures each at fallbackWarmupCycles +
// fallbackWindowCycles and at warmupCycles + windowCycles from the same
// flows, and bounds the router-activity errors and the p95 per-flow
// throughput error at about 1.25× the values §11 records for these windows.
func TestFallbackWarmupError(t *testing.T) {
	if testing.Short() {
		t.Skip("re-measures ~120 fallback windows")
	}
	fw := MustCombo("PARM", "PANR")
	var windows []cycleWindow
	for _, kind := range []appmodel.WorkloadKind{appmodel.WorkloadMixed, appmodel.WorkloadComm} {
		for _, seed := range []int64{42, 43} {
			w := genWorkload(t, kind, 20, 0.05, seed)
			windows = append(windows, collectCycleWindows(t, Config{SoftDeadlines: true, NoCMode: NoCModeAuto}, fw, w)...)
		}
	}
	if len(windows) < 40 {
		t.Fatalf("collected %d fallback windows, want at least 40", len(windows))
	}
	e, err := NewEngine(Config{}, fw)
	if err != nil {
		t.Fatal(err)
	}
	we := fallbackErrors(t, e.win.cfg, windows, fallbackWarmupCycles)
	// Measured on these 118 windows: 1.73%, 5.51%, 0.065 and 9.1%.
	const (
		sumUtilP95 = 0.022
		sumUtilMax = 0.069
		routerMax  = 0.081
		thrP95     = 0.11
	)
	thr := make([]float64, len(we.thr))
	for i, x := range we.thr {
		thr[i] = math.Abs(x)
	}
	for _, b := range []struct {
		name      string
		got, want float64
	}{
		{"Σ RouterUtil error p95", quantile(we.sumUtil, 0.95), sumUtilP95},
		{"Σ RouterUtil error max", quantile(we.sumUtil, 1), sumUtilMax},
		{"one router's RouterUtil error max", quantile(we.router, 1), routerMax},
		{"per-flow throughput |error| p95", quantile(thr, 0.95), thrP95},
	} {
		if !(b.got <= b.want) {
			t.Errorf("%d windows at a %d-cycle warmup: %s = %.4g, bound %.4g", len(windows), fallbackWarmupCycles, b.name, b.got, b.want)
		}
	}
}
