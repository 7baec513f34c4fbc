package noc

import (
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
// capacity, leaving most routers idle most cycles. This is the regime the
// engine actually measures (probed chip-wide offered load during the paper
// workloads is 0.1-2 flits/cycle across 60 tiles) and the one the active
// stepping path is built for.
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

// BenchmarkNoCStepAllocs pins the //parm:hot contract dynamically: once the
// mesh reaches steady state (ring buffers filled, wake heap and packet table
// at their working sizes), a cycle step must run allocation-free. hotalloc
// enforces the same property statically.
func BenchmarkNoCStepAllocs(b *testing.B) {
	env := &Env{PSN: make([]float64, 60)}
	n, err := NewNetwork(Config{}, PANR{}, benchFlows(), env)
	if err != nil {
		b.Fatal(err)
	}
	n.Run(8000) // fill buffers and grow the packet table to steady state
	allocs := testing.AllocsPerRun(1000, n.Step)
	if allocs != 0 {
		b.Fatalf("steady-state Step allocates %.3f times per run, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
}

// resultAllocs is what Measure's Result costs: the struct and its three
// slices.
const resultAllocs = 4

// BenchmarkWindowAllocs times a full measurement window as the engine runs
// it at every mapping event, on its one reused network and the saturated
// benchFlows fixture, and pins what the window allocates: once the network
// is warm, Reset, the warmup and Measure allocate only the Result.
func BenchmarkWindowAllocs(b *testing.B) {
	env := &Env{PSN: make([]float64, 60)}
	flows := benchFlows()
	n := &Network{}
	window := func() {
		if err := n.Reset(Config{}, PANR{}, flows, env); err != nil {
			b.Fatal(err)
		}
		n.Run(1500)
		n.Measure(8000)
	}
	window() // grow the packet table to its high-water mark
	if allocs := testing.AllocsPerRun(5, window); allocs > resultAllocs {
		b.Fatalf("warm window allocates %.1f times, want at most %d (the Result)", allocs, resultAllocs)
	}
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
