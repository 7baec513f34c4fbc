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

// countedSolver returns a Solver instrumented in a fresh registry, and a
// reader of its pdn/cache/ counters.
func countedSolver() (*Solver, func(name string) uint64) {
	s := NewSolver()
	r := obs.NewRegistry()
	s.Instrument(r)
	return s, func(name string) uint64 { return r.Counter("pdn/cache/" + name).Value() }
}

// A memoized solve must be bit-identical to the package-level solve of the
// quantized loads: the memo key is the exact input the solve sees.
func TestSolverCachedMatchesUncached(t *testing.T) {
	p := power.MustParams(power.Node7)
	cfg := Config{Params: p, Vdd: 0.5}
	loads := solverLoads(p, 0.5)

	want, err := SimulateDomain(cfg, QuantizeLoads(loads))
	if err != nil {
		t.Fatal(err)
	}
	cached, count := countedSolver()
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

	s, count := countedSolver()
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
	quant, err := NewSolver().SimulateDomain(cfg, loads)
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
	s, count := countedSolver()
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

// Solves must not leak into each other: interleaving different load
// vectors through one Solver, misses and hits, gives the same results as
// fresh Solvers.
func TestSolverScratchIsolation(t *testing.T) {
	p := power.MustParams(power.Node7)
	cfg := Config{Params: p, Vdd: 0.5}
	a := solverLoads(p, 0.5)
	var b [DomainTiles]TileLoad // idle domain: zero currents
	b[2] = TileLoad{IAvg: 1.0, Activity: 0.9, BurstHz: HighBurstHz}

	ra2, err := NewSolver().SimulateDomain(cfg, a)
	if err != nil {
		t.Fatal(err)
	}
	rb2, err := NewSolver().SimulateDomain(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	shared := NewSolver()
	for rep := 0; rep < 2; rep++ { // the second pass hits the memo
		ra1, err := shared.SimulateDomain(cfg, a)
		if err != nil {
			t.Fatal(err)
		}
		rb1, err := shared.SimulateDomain(cfg, b)
		if err != nil {
			t.Fatal(err)
		}
		if ra1 != ra2 || rb1 != rb2 {
			t.Errorf("rep %d: a shared Solver changed results", rep)
		}
	}
}

// BenchmarkSolverCached measures the memoized hot path against the full
// solve behind a miss.
func BenchmarkSolverCached(b *testing.B) {
	p := power.MustParams(power.Node7)
	cfg := Config{Params: p, Vdd: 0.5}
	loads := solverLoads(p, 0.5)
	b.Run("miss", func(b *testing.B) {
		quantized := QuantizeLoads(loads)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := SimulateDomain(cfg, quantized); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		s := NewSolver()
		if _, err := s.SimulateDomain(cfg, loads); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.SimulateDomain(cfg, loads); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Driving the memo past maxCacheEntries triggers a wholesale clear, and the
// counters expose it: one clear, maxCacheEntries entries evicted, and the
// population (misses - evicted) restarted from the overflowing insert.
func TestSolverMemoOverflow(t *testing.T) {
	s, count := countedSolver()
	var k solveKey
	for i := 0; i <= maxCacheEntries; i++ {
		// Distinct keys: vary the quantized average current of tile 0.
		k.loads[0].IAvg = float64(i) * iavgQuantum
		if _, ok := s.lookup(k); ok {
			t.Fatalf("key %d hit before it was stored", i)
		}
		s.store(k, Result{})
	}
	if clears := count("clears"); clears != 1 {
		t.Errorf("clears = %d, want 1", clears)
	}
	if evicted := count("evicted"); evicted != maxCacheEntries {
		t.Errorf("evicted = %d, want %d", evicted, maxCacheEntries)
	}
	if entries := count("misses") - count("evicted"); entries != 1 || len(s.m) != 1 {
		t.Errorf("entries = %d (map holds %d), want 1 (the overflowing insert)", entries, len(s.m))
	}
	// The memo still works after the reset.
	if _, ok := s.lookup(k); !ok {
		t.Error("overflowing insert not retrievable after clear")
	}
	if hits := count("hits"); hits != 1 {
		t.Errorf("hits = %d, want 1", hits)
	}
}
