// The domain solver: the phasor steady state. The forcing of the LTI system
// dx/dt = A·x + u(t) is a DC term plus at most two sinusoidal harmonics per
// tile, so the solution splits into a particular part x_p(t) — the DC
// operating point plus one complex phasor response per distinct harmonic
// frequency — and a homogeneous part that evolves exactly as w(t+h) =
// Φ·w(t) with Φ = exp(A·h). simulatePhasor drops the decaying homogeneous
// part and evaluates the periodic steady state directly on the sampling
// grid, which is legitimate because the measurement window already discards
// a settle prefix and targets steady switching noise (DESIGN.md §8 derives
// it). The matrix-exponential stepper that keeps w, and the RK4 integrator
// both are checked against, are test references (reference_test.go).
package pdn

import (
	"fmt"
	"math"

	"parm/internal/obs"
	"parm/internal/power"
)

// maxHarmonics bounds the distinct harmonic frequencies of one load
// signature: each of the four tiles contributes a fundamental and a 3rd
// harmonic at most.
const maxHarmonics = 2 * DomainTiles

// harmonicSet is the harmonic decomposition of one load signature: the
// distinct angular frequencies, the complex forcing amplitude per state row
// (forcing f(t) = Re(force·e^{jωt})), and after solvePhasors the complex
// response X per frequency (particular solution x_p contribution
// Re(X·e^{jωt})).
type harmonicSet struct {
	n     int
	omega [maxHarmonics]float64
	force [maxHarmonics][ltiStates]complex128
	resp  [maxHarmonics][ltiStates]complex128
}

// harmonics builds the harmonic decomposition of the circuit's switching
// currents. The smoothed square wave of tile i contributes amplitude
// IAvg·Activity/1.155 at ω_i and a third of that at 3ω_i (matching
// circuit.current exactly); tiles sharing a frequency accumulate into one
// complex forcing vector.
func (c *circuit) harmonics(hs *harmonicSet) {
	hs.n = 0
	for i, ld := range c.loads {
		if ld.IAvg <= 0 || ld.Activity <= 0 {
			continue
		}
		amp := ld.IAvg * ld.Activity / 1.155
		c.addHarmonic(hs, c.burstW[i], amp, ld.Phase, i)
		c.addHarmonic(hs, 3*c.burstW[i], amp/3, 3*ld.Phase, i)
	}
}

// addHarmonic merges one tile sinusoid I = amp·sin(ωt+ψ) into the set. The
// tile current enters row 2+tile of dx/dt as -I/Cd, and sin(θ) =
// Re(-j·e^{jθ}), so the complex forcing coefficient is (amp/Cd)·j·e^{jψ}.
func (c *circuit) addHarmonic(hs *harmonicSet, omega, amp, phase float64, tile int) {
	idx := -1
	for k := 0; k < hs.n; k++ {
		// Burst frequencies are quantized on the solver input grid, so equal
		// frequencies are bit-equal — this is the memo-key kind of equality.
		//parm:floateq
		if hs.omega[k] == omega {
			idx = k
			break
		}
	}
	if idx < 0 {
		idx = hs.n
		hs.n++
		hs.omega[idx] = omega
		hs.force[idx] = [ltiStates]complex128{}
	}
	s, co := math.Sincos(phase)
	hs.force[idx][2+tile] += complex(-amp/c.cd*s, amp/c.cd*co)
}

// facKey identifies one cached admittance factorization (jωI - A).
type facKey struct {
	params power.NodeParams
	omega  float64
}

// ltiCaches memoizes the load-independent electrical factorizations a
// Solver reuses across solves: the complex LU per (node, ω). Algorithm 1's
// candidate scan revisits the same technology node and the same two class
// burst frequencies for every (Vdd, DoP, mapping) candidate, so after the
// first few solves every entry hits and the solver's setup cost amortizes
// to near-free. The map is per-Solver (Solvers are single-threaded) and
// bounded by the handful of distinct nodes and burst frequencies a run can
// see.
type ltiCaches struct {
	factor map[facKey]*cluFactor
	// Telemetry counters set by Solver.Instrument; nil discards updates.
	facHits, facMisses *obs.Counter
}

// factorFor returns the cached LU of (jωI - A), computing and memoizing it
// on first use. A nil receiver computes without storing.
func (lc *ltiCaches) factorFor(c *circuit, params power.NodeParams, omega float64) (*cluFactor, error) {
	if lc != nil {
		if f, ok := lc.factor[facKey{params, omega}]; ok {
			lc.facHits.Inc()
			return f, nil
		}
		lc.facMisses.Inc()
	}
	a := c.ltiMatrix()
	f := &cluFactor{}
	if err := factorAdmittance(&a, omega, f); err != nil {
		return nil, fmt.Errorf("pdn: admittance at ω=%g: %w", omega, err)
	}
	if lc != nil {
		if lc.factor == nil {
			lc.factor = make(map[facKey]*cluFactor)
		}
		lc.factor[facKey{params, omega}] = f
	}
	return f, nil
}

// solvePhasors fills hs.resp with the phasor response X_k of every harmonic:
// (jω_k·I - A)·X_k = force_k.
func (c *circuit) solvePhasors(cfg Config, hs *harmonicSet, caches *ltiCaches) error {
	for k := 0; k < hs.n; k++ {
		fac, err := caches.factorFor(c, cfg.Params, hs.omega[k])
		if err != nil {
			return err
		}
		hs.resp[k] = hs.force[k]
		fac.solve(&hs.resp[k])
	}
	return nil
}

// phasorGrid is what the sampling-grid loop of simulatePhasor reads: the DC
// tile voltages, and per harmonic the oscillator z_k = e^{jω_k t} at the
// first recorded instant, its one-step rotation and the tile response
// coefficients, split into real and imaginary parts so that the loop does
// no complex arithmetic.
type phasorGrid struct {
	vdd    float64
	vt     [DomainTiles]float64
	n      int
	zr, zi [maxHarmonics]float64
	rr, ri [maxHarmonics]float64
	cr, ci [maxHarmonics][DomainTiles]float64
}

// The sampling grid of every solver: gridSteps instants t = (n+1)·h, of
// which the first gridSettle are not recorded.
const (
	gridSteps  = int(sampleWindow / sampleDt)
	gridSettle = gridSteps / 8
)

// newPhasorGrid solves the DC operating point and the phasor responses of
// loads and lays them out for the grid loop.
func newPhasorGrid(cfg Config, loads [DomainTiles]TileLoad, scratch *solverScratch, caches *ltiCaches) (phasorGrid, error) {
	c := newCircuit(cfg, loads)
	st0, err := c.dcOperatingPoint(scratch)
	if err != nil {
		return phasorGrid{}, err
	}
	var hs harmonicSet
	c.harmonics(&hs)
	if err := c.solvePhasors(cfg, &hs, caches); err != nil {
		return phasorGrid{}, err
	}
	g := phasorGrid{vdd: float64(cfg.Vdd), vt: st0.vt, n: hs.n}
	h := float64(sampleDt)
	for k := 0; k < hs.n; k++ {
		s, co := math.Sincos(hs.omega[k] * h * float64(gridSettle+1))
		g.zr[k], g.zi[k] = co, s
		s, co = math.Sincos(hs.omega[k] * h)
		g.rr[k], g.ri[k] = co, s
		for i := 0; i < DomainTiles; i++ {
			g.cr[k][i] = real(hs.resp[k][2+i])
			g.ci[k][i] = imag(hs.resp[k][2+i])
		}
	}
	return g, nil
}

// simulatePhasor measures the periodic steady state directly on the RK4
// sampling grid, with no time stepping: tile voltages are vDC_i +
// Σ_k Re(X_k[2+i]·e^{jω_k t}) at the same instants t = (n+1)·h, n ∈
// [settle, steps), that the RK4 loop records. The homogeneous start-up
// transient (which the settle window exists to shed) is dropped entirely.
func simulatePhasor(cfg Config, loads [DomainTiles]TileLoad, scratch *solverScratch, caches *ltiCaches) (Result, error) {
	g, err := newPhasorGrid(cfg, loads, scratch, caches)
	if err != nil {
		return Result{}, err
	}
	return g.run(), nil
}

// run evaluates the grid with the droop semantics of the RK4 recording
// loop: droop (vdd−v)/vdd is clamped at zero (overshoot above Vdd is not
// supply droop) and averaged over the recorded points. All four tiles are
// evaluated in one pass over the harmonics, each tile adding its terms in
// harmonic order, which then advances each oscillator by one rotation. The
// peak is the droop of the minimum voltage: droop is monotone in v, also
// after rounding, so this is the largest recorded droop bit for bit. The
// per-tile loop it replaced is the test reference (reference_test.go).
func (g *phasorGrid) run() Result {
	vdd, nh := g.vdd, g.n
	zr, zi, rr, ri := g.zr, g.zi, g.rr, g.ri
	m0, m1, m2, m3 := vdd, vdd, vdd, vdd
	var s0, s1, s2, s3 float64
	droop := func(v float64) float64 {
		d := (vdd - v) / vdd
		if d < 0 {
			d = 0
		}
		return d
	}
	for n := gridSettle; n < gridSteps; n++ {
		v0, v1, v2, v3 := g.vt[0], g.vt[1], g.vt[2], g.vt[3]
		for k := 0; k < nh; k++ {
			a, b := zr[k], zi[k]
			cr, ci := &g.cr[k], &g.ci[k]
			v0 += cr[0]*a - ci[0]*b
			v1 += cr[1]*a - ci[1]*b
			v2 += cr[2]*a - ci[2]*b
			v3 += cr[3]*a - ci[3]*b
			zr[k], zi[k] = a*rr[k]-b*ri[k], a*ri[k]+b*rr[k]
		}
		if v0 < m0 {
			m0 = v0
		}
		if v1 < m1 {
			m1 = v1
		}
		if v2 < m2 {
			m2 = v2
		}
		if v3 < m3 {
			m3 = v3
		}
		s0, s1, s2, s3 = s0+droop(v0), s1+droop(v1), s2+droop(v2), s3+droop(v3)
	}
	points := float64(gridSteps - gridSettle)
	return Result{
		PeakPSN:    [DomainTiles]float64{droop(m0), droop(m1), droop(m2), droop(m3)},
		AvgPSN:     [DomainTiles]float64{s0 / points, s1 / points, s2 / points, s3 / points},
		MinVoltage: [DomainTiles]power.Volts{power.Volts(m0), power.Volts(m1), power.Volts(m2), power.Volts(m3)},
		Steps:      gridSteps,
	}
}
