package pdn

import (
	"math"

	"parm/internal/obs"
	"parm/internal/power"
)

// Load-signature quantization grids. The runtime measurement pipeline
// (chip.SamplePSN) solves the same handful of load vectors over and over:
// occupants change only at map/unmap events and router utilization is a
// coarse measured ratio, so consecutive samples repeat the same electrical
// inputs almost exactly. Snapping the inputs to these grids before solving
// makes the repeats *bit*-exact, which is what lets the solve cache hit,
// while perturbing the physics far below the model's own fidelity (the
// sensor path later quantizes PSN readings to 6 bits anyway).
const (
	// iavgQuantum snaps average tile current to 0.1 mA (tile currents are
	// in the ampere range: ~1e-5 relative).
	iavgQuantum = 1e-4
	// activityQuantum snaps the modulation depth to 1/1024.
	activityQuantum = 1.0 / 1024
	// phaseQuantum snaps the burst phase to 2*pi/4096 radians.
	phaseQuantum = 2 * math.Pi / 4096
	// burstQuantum snaps the burst frequency to 1 kHz (burst frequencies
	// are tens-to-hundreds of MHz).
	burstQuantum = 1e3
)

func quantize(v, q float64) float64 { return math.Round(v/q) * q }

// QuantizeLoads snaps a 4-tile load signature to the solver's input grids.
// Solver.SimulateDomain applies it before every solve, cached or not, so a
// cached result is always the exact transient solution of the inputs the
// uncached path would solve.
func QuantizeLoads(loads [DomainTiles]TileLoad) [DomainTiles]TileLoad {
	for i := range loads {
		loads[i].IAvg = quantize(loads[i].IAvg, iavgQuantum)
		loads[i].Activity = quantize(loads[i].Activity, activityQuantum)
		loads[i].Phase = quantize(loads[i].Phase, phaseQuantum)
		loads[i].BurstHz = quantize(loads[i].BurstHz, burstQuantum)
	}
	return loads
}

// solveKey identifies one memoizable domain solve: the full electrical
// configuration plus the quantized load signature. All fields are scalar,
// so the struct is directly usable as a map key.
type solveKey struct {
	params power.NodeParams
	vdd    power.Volts
	loads  [DomainTiles]TileLoad
}

// maxCacheEntries bounds a SolveCache. Real runs see a few hundred distinct
// keys (occupant sets x Vdd levels x router-utilization grid points); the
// bound only guards against pathological churn. On overflow the cache is
// cleared wholesale — eviction order is irrelevant at this hit rate and a
// plain map stays cheap.
const maxCacheEntries = 1 << 15

// SolveCache memoizes domain transient solves across samples. It is not
// safe for concurrent use.
type SolveCache struct {
	m      map[solveKey]Result
	hits   uint64
	misses uint64
	// clears counts wholesale resets on overflow; evicted totals the
	// entries those resets dropped.
	clears  uint64
	evicted uint64
	// Telemetry mirrors, set once by Instrument before the first lookup.
	// Nil (uninstrumented) counters discard updates.
	obsHits, obsMisses, obsClears, obsEvicted *obs.Counter
}

// NewSolveCache returns an empty cache.
func NewSolveCache() *SolveCache {
	return &SolveCache{m: make(map[solveKey]Result)}
}

func (c *SolveCache) lookup(k solveKey) (Result, bool) {
	r, ok := c.m[k]
	if ok {
		c.hits++
		c.obsHits.Inc()
	} else {
		c.misses++
		c.obsMisses.Inc()
	}
	return r, ok
}

func (c *SolveCache) store(k solveKey, r Result) {
	if len(c.m) >= maxCacheEntries {
		c.clears++
		c.evicted += uint64(len(c.m))
		c.obsClears.Inc()
		c.obsEvicted.Add(uint64(len(c.m)))
		c.m = make(map[solveKey]Result)
	}
	c.m[k] = r
}

// CacheStats is a point-in-time snapshot of a SolveCache's lifetime
// counters and current size.
type CacheStats struct {
	// Hits and Misses count lookups since creation.
	Hits, Misses uint64
	// Clears counts wholesale overflow resets (the cache drops everything
	// when it exceeds its entry bound); Evicted totals the entries those
	// resets dropped. A nonzero Clears on a real run means the workload's
	// key population outgrew maxCacheEntries — pathological churn the
	// previous Stats form silently hid.
	Clears, Evicted uint64
	// Entries is the current population.
	Entries int
}

// Stats reports the cache's hit/miss/eviction counters and current entry
// count.
func (c *SolveCache) Stats() CacheStats {
	return CacheStats{
		Hits:    c.hits,
		Misses:  c.misses,
		Clears:  c.clears,
		Evicted: c.evicted,
		Entries: len(c.m),
	}
}

// Solver runs domain transient simulations with reusable scratch buffers
// and an optional solve cache. A Solver is not safe for concurrent use (the
// scratch is per-solve state).
type Solver struct {
	cache   *SolveCache
	scratch solverScratch
	// lti memoizes the load-independent admittance factorizations the
	// phasor solve reuses — these hit even when the solve cache misses on a
	// new load signature.
	lti ltiCaches
}

// NewSolver returns a Solver backed by cache. A nil cache disables
// memoization (every call solves) but keeps the scratch-buffer reuse
// and the input quantization, so cached and uncached solvers produce
// bit-identical results for the same inputs.
func NewSolver(cache *SolveCache) *Solver {
	return &Solver{cache: cache}
}

// SimulateDomain is the memoizing counterpart of the package-level
// SimulateDomain: it quantizes the load signature (QuantizeLoads), then
// returns the cached result for the (node params, Vdd, loads) key,
// solving only on a miss.
func (s *Solver) SimulateDomain(cfg Config, loads [DomainTiles]TileLoad) (Result, error) {
	if err := validate(cfg, loads); err != nil {
		return Result{}, err
	}
	loads = QuantizeLoads(loads)
	if s.cache == nil {
		return simulatePhasor(cfg, loads, &s.scratch, &s.lti)
	}
	key := solveKey{params: cfg.Params, vdd: cfg.Vdd, loads: loads}
	if r, ok := s.cache.lookup(key); ok {
		return r, nil
	}
	r, err := simulatePhasor(cfg, loads, &s.scratch, &s.lti)
	if err != nil {
		return Result{}, err
	}
	s.cache.store(key, r)
	return r, nil
}
