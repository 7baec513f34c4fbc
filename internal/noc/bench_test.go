package noc

import (
	"runtime"
	"testing"

	"parm/internal/geom"
)

func benchFlows() []Flow {
	var flows []Flow
	for i := 0; i < 36; i++ {
		src := geom.TileID((i * 7) % 60)
		dst := geom.TileID((i*13 + 17) % 60)
		if src == dst {
			dst = (dst + 1) % 60
		}
		flows = append(flows, Flow{App: i % 4, Src: src, Dst: dst, Rate: 0.1})
	}
	return flows
}

// sparseFlows is a Fig 6-shaped flow set: many flows, each far below link
// capacity, leaving most routers idle most cycles. The engine's own windows
// are busier. In the cycle windows of seed-42, 20-app PARM+PANR runs
// (BenchmarkEngineWindows replays the mixed one), a cycle starts with a
// router holding a flit, a tile with injection work or a demand wakeup due
// on 80% of the mixed soft-deadline run's cycles (289,069 of 361,000),
// 99.5% of the comm hard-deadline run's (274,172 of 275,500) and 55% of
// the compute run's (194,971 of 351,500), and such a cycle steps 19.0,
// 21.1 and 17.6 routers.
func sparseFlows() []Flow {
	rates := []float64{0.004, 0.002, 0.008, 0.001, 0.006}
	var flows []Flow
	for i := 0; i < 50; i++ {
		src := geom.TileID((i * 7) % 60)
		dst := geom.TileID((i*13 + 5) % 60)
		if src == dst {
			dst = (dst + 1) % 60
		}
		flows = append(flows, Flow{App: i % 8, Src: src, Dst: dst, Rate: rates[i%len(rates)]})
	}
	return flows
}

// BenchmarkNetworkStep times one simulated cycle of a moderately loaded
// 10x6 mesh — the inner loop of every NoC measurement window.
func BenchmarkNetworkStep(b *testing.B) {
	for _, alg := range []Algorithm{XY{}, PANR{}} {
		b.Run(alg.Name(), func(b *testing.B) {
			env := &Env{PSN: make([]float64, 60)}
			n, err := NewNetwork(Config{}, alg, benchFlows(), env)
			if err != nil {
				b.Fatal(err)
			}
			n.Run(2000) // reach steady state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Step()
			}
		})
	}
}

// hotspotFlows is the congested fixture benchFlows is not: 24 flows at
// rate 0.6 converge on tile 27, far past its one-flit-per-cycle ejection.
// Sources back up until their stage queues are full and stall, and
// traversal finds full downstream buffers, so a steady-state step takes the
// stall and backpressure branches that the 0.1-rate benchFlows never
// reaches.
func hotspotFlows() []Flow {
	var flows []Flow
	for i := 0; i < 24; i++ {
		flows = append(flows, Flow{App: i % 4, Src: geom.TileID(2 * i), Dst: 27, Rate: 0.6})
	}
	return flows
}

// steadyNetwork returns a network routing flows with alg under env, run to
// steady state: ring buffers filled, wake calendar and packet table at their
// working sizes.
func steadyNetwork(tb testing.TB, alg Algorithm, flows []Flow, env *Env) *Network {
	n, err := NewNetwork(Config{}, alg, flows, env)
	if err != nil {
		tb.Fatal(err)
	}
	n.Run(8000)
	return n
}

// stalledCycles totals the source stalls of every flow so far.
func stalledCycles(n *Network) int {
	total := 0
	for _, st := range n.stats {
		total += st.StalledCycles
	}
	return total
}

// xyWatch routes with its Algorithm and counts the route calls whose
// direction differs from XY's on the same context, so a test can tell
// whether an adaptive scheme's deviating branches ran.
type xyWatch struct {
	Algorithm
	deviations *int
}

// Route implements Algorithm.
func (w xyWatch) Route(ctx RouteCtx) geom.Dir {
	d := w.Algorithm.Route(ctx)
	if d != (XY{}).Route(ctx) {
		*w.deviations++
	}
	return d
}

// stepMallocs returns the heap allocations of steps calls to n.Step after
// one warm-up step, the way testing.AllocsPerRun measures them but as a
// total: AllocsPerRun rounds the per-run mean down, so a branch that
// allocates on fewer than one step in steps would read 0.
func stepMallocs(n *Network, steps int) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	n.Step()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		n.Step()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestNoCStepAllocs pins the cycle loop's zero-allocation contract: once the
// mesh reaches steady state, a cycle step must run allocation-free, under
// every routing scheme, on the lightly loaded benchFlows, on the congested
// hotspotFlows, and on a random flow set under patterned PSN on which the
// adaptive schemes leave XY's path. Each fixture must also exercise what it
// is there for while Step is measured: the hotspot case must stall sources,
// and on the deviating case ICON and PANR must route some head away from
// XY's direction.
func TestNoCStepAllocs(t *testing.T) {
	fixtures := []struct {
		name     string
		flows    func() []Flow
		env      *Env
		stalls   bool
		deviates bool
	}{
		{"bench", benchFlows, noisyEnv(0), false, false},
		{"hotspot", hotspotFlows, noisyEnv(0), true, false},
		{"deviating", func() []Flow { return deviatingFlows(3) }, patternedEnv(), false, true},
	}
	for _, fx := range fixtures {
		for _, alg := range []Algorithm{XY{}, ICON{}, PANR{}} {
			t.Run(fx.name+"/"+alg.Name(), func(t *testing.T) {
				deviations := 0
				n := steadyNetwork(t, xyWatch{alg, &deviations}, fx.flows(), fx.env)
				stalls, deviated := stalledCycles(n), deviations
				if allocs := stepMallocs(n, 1000); allocs != 0 {
					t.Fatalf("1,000 steady-state Steps allocate %d times, want 0", allocs)
				}
				if fx.stalls && stalledCycles(n) == stalls {
					t.Fatal("no source stalled while Step was measured; the fixture is not congested")
				}
				if fx.deviates && alg != Algorithm(XY{}) && deviations == deviated {
					t.Fatal("no route call left XY's direction while Step was measured; the adaptive branches went unmeasured")
				}
			})
		}
	}
}

// BenchmarkNoCStepAllocs times the steady-state step TestNoCStepAllocs
// pins at zero allocations.
func BenchmarkNoCStepAllocs(b *testing.B) {
	n := steadyNetwork(b, PANR{}, benchFlows(), noisyEnv(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
}

// resultAllocs is what Measure's Result costs: the struct and its three
// slices.
const resultAllocs = 4

// warmWindow returns a full measurement window as the engine runs it at
// every mapping event, on one reused network and the lightly loaded
// benchFlows fixture, after one window has grown the packet table to its high-water
// mark.
func warmWindow(tb testing.TB) func() {
	env := &Env{PSN: make([]float64, 60)}
	flows := benchFlows()
	n := &Network{}
	window := func() {
		if err := n.Reset(Config{}, PANR{}, flows, env); err != nil {
			tb.Fatal(err)
		}
		n.Run(1500)
		n.Measure(8000)
	}
	window()
	return window
}

// TestWindowAllocs pins what a warm window allocates: Reset, the warmup and
// Measure allocate only the Result.
func TestWindowAllocs(t *testing.T) {
	if allocs := testing.AllocsPerRun(5, warmWindow(t)); allocs > resultAllocs {
		t.Fatalf("warm window allocates %.1f times, want at most %d (the Result)", allocs, resultAllocs)
	}
}

// BenchmarkWindowAllocs times the warm window TestWindowAllocs pins.
func BenchmarkWindowAllocs(b *testing.B) {
	window := warmWindow(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		window()
	}
}

// BenchmarkSparseWindow compares the window strategies on the Fig 6-shaped
// sparse fixture: the active-set cycle path and the analytic closed form.
// parmbench's fig6_mixed_auto against fig6_mixed_cycle shows what they add
// up to over a whole engine run.
func BenchmarkSparseWindow(b *testing.B) {
	flows := sparseFlows()
	b.Run("active", func(b *testing.B) {
		env := &Env{PSN: make([]float64, 60)}
		for i := 0; i < b.N; i++ {
			n, err := NewNetwork(Config{}, PANR{}, flows, env)
			if err != nil {
				b.Fatal(err)
			}
			n.Run(1500)
			n.Measure(8000)
		}
	})
	b.Run("analytic", func(b *testing.B) {
		env := &Env{PSN: make([]float64, 60)}
		for i := 0; i < b.N; i++ {
			if _, _, err := AnalyticMeasure(Config{}, PANR{}, flows, env, 8000); err != nil {
				b.Fatal(err)
			}
		}
	})
}
