package pdn

import (
	"testing"

	"parm/internal/power"
)

// BenchmarkSimulateDomain times one transient solve of a fully loaded
// domain — the inner loop of chip-wide PSN sampling.
func BenchmarkSimulateDomain(b *testing.B) {
	p := power.MustParams(power.Node7)
	loads := BuildLoads(occupantsForBench(p))
	cfg := Config{Params: p, Vdd: 0.5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateDomain(cfg, loads); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDomainSolve times one solve of the phasor path and of its two
// test references over the default measurement window (what the runtime
// pipeline runs when a load signature misses the Solver's memo; the
// references reuse their tables and Φ). The acceptance bar for the
// phasor path is >= 5x faster than rk4 here; phasor-ref times the same
// solve with the reference grid loop.
func BenchmarkDomainSolve(b *testing.B) {
	p := power.MustParams(power.Node7)
	loads := QuantizeLoads(BuildLoads(occupantsForBench(p)))
	for _, m := range []string{"rk4", "expm", "phasor", "phasor-ref"} {
		b.Run(m, func(b *testing.B) {
			cfg := Config{Params: p, Vdd: 0.5}
			s := newRefSolver()
			if _, err := s.solve(m, cfg, loads); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.solve(m, cfg, loads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDCOperatingPoint times the linear solve used to initialize the
// transient.
func BenchmarkDCOperatingPoint(b *testing.B) {
	p := power.MustParams(power.Node7)
	loads := BuildLoads(occupantsForBench(p))
	c := newCircuit(Config{Params: p, Vdd: 0.5}, loads)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.dcOperatingPoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// missSolve returns the solve a Solver runs when a fully loaded domain
// misses its memo: the package-level path on the quantized loads (DC
// operating point, phasor solve, grid sampling).
func missSolve(tb testing.TB) func() {
	p := power.MustParams(power.Node7)
	loads := QuantizeLoads(BuildLoads(occupantsForBench(p)))
	cfg := Config{Params: p, Vdd: 0.5}
	return func() {
		if _, err := SimulateDomain(cfg, loads); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestPSNStepAllocs pins the PSN solve's zero-allocation contract: the
// full solve behind a memo miss must run allocation-free, inside loops or
// not.
func TestPSNStepAllocs(t *testing.T) {
	if allocs := testing.AllocsPerRun(10, missSolve(t)); allocs != 0 {
		t.Fatalf("PSN solve allocates %.1f times per run, want 0", allocs)
	}
}

// BenchmarkPSNStepAllocs times the solve TestPSNStepAllocs pins.
func BenchmarkPSNStepAllocs(b *testing.B) {
	solve := missSolve(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve()
	}
}

func occupantsForBench(p power.NodeParams) [DomainTiles]TileOccupant {
	var occ [DomainTiles]TileOccupant
	for i := range occ {
		class := High
		if i%2 == 1 {
			class = Low
		}
		occ[i] = TileOccupant{IAvg: p.TileCurrent(0.5, 0.9, 0.4), Class: class, Staggered: true}
	}
	return occ
}
