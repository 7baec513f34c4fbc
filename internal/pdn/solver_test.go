package pdn

import (
	"math"
	"testing"

	"parm/internal/obs"
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

// cachedSolver returns a cached Solver instrumented in a fresh registry,
// and a reader of its pdn/cache/ counters.
func cachedSolver() (*Solver, func(name string) uint64) {
	s := NewSolver(NewSolveCache())
	r := obs.NewRegistry()
	s.Instrument(r)
	return s, func(name string) uint64 { return r.Counter("pdn/cache/" + name).Value() }
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
	cached, count := cachedSolver()
	for trial := 0; trial < 3; trial++ {
		got, err := cached.SimulateDomain(cfg, loads)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: cached result differs:\n got %+v\nwant %+v", trial, got, want)
		}
	}
	if hits, misses := count("hits"), count("misses"); hits != 2 || misses != 1 {
		t.Errorf("cache hits=%d misses=%d, want 2/1", hits, misses)
	}
}

// Inputs that differ only below the quantization grid hit the same cache
// entry; inputs that differ above it do not.
func TestSolverQuantizationHits(t *testing.T) {
	p := power.MustParams(power.Node7)
	cfg := Config{Params: p, Vdd: 0.5}
	base := solverLoads(p, 0.5)

	s, count := cachedSolver()
	if _, err := s.SimulateDomain(cfg, base); err != nil {
		t.Fatal(err)
	}
	jittered := base
	jittered[0].IAvg += iavgQuantum / 8 // below half a grid step: same key
	if _, err := s.SimulateDomain(cfg, jittered); err != nil {
		t.Fatal(err)
	}
	if hits := count("hits"); hits != 1 {
		t.Errorf("sub-quantum jitter missed the cache (hits=%d)", hits)
	}
	moved := base
	moved[0].IAvg *= 1.05 // 5% load change: distinct key
	if _, err := s.SimulateDomain(cfg, moved); err != nil {
		t.Fatal(err)
	}
	if misses := count("misses"); misses != 2 {
		t.Errorf("distinct load reused a stale entry (misses=%d)", misses)
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
	s, count := cachedSolver()
	if _, err := s.SimulateDomain(Config{Params: p, Vdd: -1}, [DomainTiles]TileLoad{}); err == nil {
		t.Error("negative Vdd accepted")
	}
	bad := [DomainTiles]TileLoad{{IAvg: -3}}
	if _, err := s.SimulateDomain(Config{Params: p, Vdd: 0.5}, bad); err == nil {
		t.Error("negative load accepted")
	}
	if misses := count("misses"); misses != 0 {
		t.Errorf("invalid inputs reached the cache (%d misses)", misses)
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
// counters expose it: one clear, maxCacheEntries entries evicted, and the
// population (misses - evicted) restarted from the overflowing insert.
func TestSolveCacheOverflow(t *testing.T) {
	s, count := cachedSolver()
	c := s.cache
	var k solveKey
	for i := 0; i <= maxCacheEntries; i++ {
		// Distinct keys: vary the quantized average current of tile 0.
		k.loads[0].IAvg = float64(i) * iavgQuantum
		if _, ok := c.lookup(k); ok {
			t.Fatalf("key %d hit before it was stored", i)
		}
		c.store(k, Result{})
	}
	if clears := count("clears"); clears != 1 {
		t.Errorf("clears = %d, want 1", clears)
	}
	if evicted := count("evicted"); evicted != maxCacheEntries {
		t.Errorf("evicted = %d, want %d", evicted, maxCacheEntries)
	}
	if entries := count("misses") - count("evicted"); entries != 1 || len(c.m) != 1 {
		t.Errorf("entries = %d (map holds %d), want 1 (the overflowing insert)", entries, len(c.m))
	}
	// The cache still works after the reset.
	if _, ok := c.lookup(k); !ok {
		t.Error("overflowing insert not retrievable after clear")
	}
	if hits := count("hits"); hits != 1 {
		t.Errorf("hits = %d, want 1", hits)
	}
}
