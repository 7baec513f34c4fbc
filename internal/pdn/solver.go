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
// Solver.SimulateDomain applies it before every lookup, so a memoized
// result is always the exact solution of the quantized inputs.
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

// maxCacheEntries bounds a Solver's memo. Real runs see a few hundred
// distinct keys (occupant sets x Vdd levels x router-utilization grid
// points); the bound only guards against pathological churn. On overflow
// the memo is cleared wholesale — eviction order is irrelevant at this hit
// rate and a plain map stays cheap.
const maxCacheEntries = 1 << 15

// Solver memoizes domain solves across samples in one map. The solve
// behind a miss is the pure package-level path, so a memoized result is
// bit-identical to SimulateDomain on the quantized loads. A Solver is not
// safe for concurrent use.
type Solver struct {
	m map[solveKey]Result
	// Registry counters set by Instrument, the memo's only record of its
	// lookups and resets; nil (uninstrumented) counters discard updates.
	// clears counts wholesale resets on overflow; evicted totals the
	// entries those resets dropped.
	hits, misses, clears, evicted *obs.Counter
}

// NewSolver returns a Solver with an empty memo.
func NewSolver() *Solver {
	return &Solver{m: make(map[solveKey]Result)}
}

func (s *Solver) lookup(k solveKey) (Result, bool) {
	r, ok := s.m[k]
	if ok {
		s.hits.Inc()
	} else {
		s.misses.Inc()
	}
	return r, ok
}

func (s *Solver) store(k solveKey, r Result) {
	if len(s.m) >= maxCacheEntries {
		s.clears.Inc()
		s.evicted.Add(uint64(len(s.m)))
		s.m = make(map[solveKey]Result)
	}
	s.m[k] = r
}

// SimulateDomain is the memoizing counterpart of the package-level
// SimulateDomain: it quantizes the load signature (QuantizeLoads), then
// returns the memoized result for the (node params, Vdd, loads) key,
// solving only on a miss.
func (s *Solver) SimulateDomain(cfg Config, loads [DomainTiles]TileLoad) (Result, error) {
	if err := validate(cfg, loads); err != nil {
		return Result{}, err
	}
	key := solveKey{params: cfg.Params, vdd: cfg.Vdd, loads: QuantizeLoads(loads)}
	if r, ok := s.lookup(key); ok {
		return r, nil
	}
	r, err := simulatePhasor(cfg, key.loads)
	if err != nil {
		return Result{}, err
	}
	s.store(key, r)
	return r, nil
}
