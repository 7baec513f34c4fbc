package pdn

import (
	"math"
	"testing"

	"parm/internal/power"
)

func solverLoads(p power.NodeParams, vdd power.Volts) [DomainTiles]TileLoad {
	var occ [DomainTiles]TileOccupant
	for i := range occ {
		class := High
		if i%2 == 1 {
			class = Low
		}
		occ[i] = TileOccupant{
			IAvg:      p.TileCurrent(vdd, 0.9, 0.3),
			Class:     class,
			Staggered: true,
		}
	}
	return BuildLoads(occ)
}

// A cached solve must be bit-identical to the same solver's uncached solve:
// the cache key is the exact (quantized) input the integrator sees.
func TestSolverCachedMatchesUncached(t *testing.T) {
	p := power.MustParams(power.Node7)
	cfg := Config{Params: p, Vdd: 0.5}
	loads := solverLoads(p, 0.5)

	uncached := NewSolver(nil)
	want, err := uncached.SimulateDomain(cfg, loads)
	if err != nil {
		t.Fatal(err)
	}
	cached := NewSolver(NewSolveCache())
	for trial := 0; trial < 3; trial++ {
		got, err := cached.SimulateDomain(cfg, loads)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: cached result differs:\n got %+v\nwant %+v", trial, got, want)
		}
	}
	st := cached.cache.Stats()
	if st.Misses != 1 || st.Hits != 2 || st.Entries != 1 {
		t.Errorf("cache stats hits=%d misses=%d entries=%d, want 2/1/1", st.Hits, st.Misses, st.Entries)
	}
}

// Inputs that differ only below the quantization grid hit the same cache
// entry; inputs that differ above it do not.
func TestSolverQuantizationHits(t *testing.T) {
	p := power.MustParams(power.Node7)
	cfg := Config{Params: p, Vdd: 0.5}
	base := solverLoads(p, 0.5)

	s := NewSolver(NewSolveCache())
	if _, err := s.SimulateDomain(cfg, base); err != nil {
		t.Fatal(err)
	}
	jittered := base
	jittered[0].IAvg += iavgQuantum / 8 // below half a grid step: same key
	if _, err := s.SimulateDomain(cfg, jittered); err != nil {
		t.Fatal(err)
	}
	if hits := s.cache.Stats().Hits; hits != 1 {
		t.Errorf("sub-quantum jitter missed the cache (hits=%d)", hits)
	}
	moved := base
	moved[0].IAvg *= 1.05 // 5% load change: distinct key
	if _, err := s.SimulateDomain(cfg, moved); err != nil {
		t.Fatal(err)
	}
	if st := s.cache.Stats(); st.Misses != 2 || st.Entries != 2 {
		t.Errorf("distinct load reused a stale entry (misses=%d entries=%d)", st.Misses, st.Entries)
	}
}

// Quantization perturbs the solution far below the model's fidelity.
func TestSolverCloseToExactPath(t *testing.T) {
	p := power.MustParams(power.Node7)
	cfg := Config{Params: p, Vdd: 0.5}
	loads := solverLoads(p, 0.5)

	exact, err := SimulateDomain(cfg, loads)
	if err != nil {
		t.Fatal(err)
	}
	quant, err := NewSolver(nil).SimulateDomain(cfg, loads)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < DomainTiles; i++ {
		if math.Abs(exact.PeakPSN[i]-quant.PeakPSN[i]) > 1e-4 {
			t.Errorf("tile %d peak: exact %g vs quantized %g", i, exact.PeakPSN[i], quant.PeakPSN[i])
		}
	}
}

// The solver validates like the package-level path.
func TestSolverRejectsBadInput(t *testing.T) {
	p := power.MustParams(power.Node7)
	s := NewSolver(NewSolveCache())
	if _, err := s.SimulateDomain(Config{Params: p, Vdd: -1}, [DomainTiles]TileLoad{}); err == nil {
		t.Error("negative Vdd accepted")
	}
	bad := [DomainTiles]TileLoad{{IAvg: -3}}
	if _, err := s.SimulateDomain(Config{Params: p, Vdd: 0.5}, bad); err == nil {
		t.Error("negative load accepted")
	}
	if s.cache.Stats().Entries != 0 {
		t.Error("invalid inputs were cached")
	}
}

// Scratch buffers must not leak state between solves: interleaving
// different load vectors through one Solver gives the same results as
// fresh solvers.
func TestSolverScratchIsolation(t *testing.T) {
	p := power.MustParams(power.Node7)
	cfg := Config{Params: p, Vdd: 0.5}
	a := solverLoads(p, 0.5)
	var b [DomainTiles]TileLoad // idle domain: zero currents
	b[2] = TileLoad{IAvg: 1.0, Activity: 0.9, BurstHz: HighBurstHz}

	shared := NewSolver(nil)
	ra1, err := shared.SimulateDomain(cfg, a)
	if err != nil {
		t.Fatal(err)
	}
	rb1, err := shared.SimulateDomain(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	ra2, err := NewSolver(nil).SimulateDomain(cfg, a)
	if err != nil {
		t.Fatal(err)
	}
	rb2, err := NewSolver(nil).SimulateDomain(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	if ra1 != ra2 || rb1 != rb2 {
		t.Error("scratch reuse changed results")
	}
}

// BenchmarkSolverCached measures the memoized hot path against the full
// integration.
func BenchmarkSolverCached(b *testing.B) {
	p := power.MustParams(power.Node7)
	cfg := Config{Params: p, Vdd: 0.5}
	loads := solverLoads(p, 0.5)
	b.Run("miss", func(b *testing.B) {
		s := NewSolver(nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.SimulateDomain(cfg, loads); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		s := NewSolver(NewSolveCache())
		if _, err := s.SimulateDomain(cfg, loads); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.SimulateDomain(cfg, loads); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Driving the cache past maxCacheEntries triggers a wholesale clear, and the
// Stats counters expose it: one clear, maxCacheEntries entries evicted, and
// the population restarted from the overflowing insert.
func TestSolveCacheOverflow(t *testing.T) {
	c := NewSolveCache()
	var k solveKey
	for i := 0; i <= maxCacheEntries; i++ {
		// Distinct keys: vary the quantized average current of tile 0.
		k.loads[0].IAvg = float64(i) * iavgQuantum
		c.store(k, Result{})
	}
	st := c.Stats()
	if st.Clears != 1 {
		t.Errorf("Clears = %d, want 1", st.Clears)
	}
	if st.Evicted != maxCacheEntries {
		t.Errorf("Evicted = %d, want %d", st.Evicted, maxCacheEntries)
	}
	if st.Entries != 1 {
		t.Errorf("Entries = %d, want 1 (the overflowing insert)", st.Entries)
	}
	// The cache still works after the reset.
	if _, ok := c.lookup(k); !ok {
		t.Error("overflowing insert not retrievable after clear")
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Errorf("Hits = %d, want 1", st.Hits)
	}
}
