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

// psnAccum accumulates the droop statistics of one tile-voltage sample,
// with the same semantics as the RK4 recording loop: droop is clamped at
// zero (overshoot above Vdd is not supply droop), peak and sum track the
// recorded grid only.
type psnAccum struct {
	vdd    float64
	minV   [DomainTiles]float64
	peak   [DomainTiles]float64
	sum    [DomainTiles]float64
	points int
}

func newPSNAccum(vdd float64) psnAccum {
	a := psnAccum{vdd: vdd}
	for i := range a.minV {
		a.minV[i] = vdd
	}
	return a
}

func (a *psnAccum) record(i int, v float64) {
	if v < a.minV[i] {
		a.minV[i] = v
	}
	droop := (a.vdd - v) / a.vdd
	if droop < 0 {
		droop = 0
	}
	a.sum[i] += droop
	if droop > a.peak[i] {
		a.peak[i] = droop
	}
}

func (a *psnAccum) result(steps int) Result {
	var res Result
	for i := 0; i < DomainTiles; i++ {
		res.PeakPSN[i] = a.peak[i]
		res.MinVoltage[i] = power.Volts(a.minV[i])
		if a.points > 0 {
			res.AvgPSN[i] = a.sum[i] / float64(a.points)
		}
	}
	res.Steps = steps
	return res
}

// simulatePhasor measures the periodic steady state directly on the RK4
// sampling grid, with no time stepping: tile voltages are vDC_i +
// Σ_k Re(X_k[2+i]·e^{jω_k t}) at the same instants t = (n+1)·h, n ∈
// [settle, steps), that the RK4 loop records. The homogeneous start-up
// transient (which the settle window exists to shed) is dropped entirely.
func simulatePhasor(cfg Config, loads [DomainTiles]TileLoad, scratch *solverScratch, caches *ltiCaches) (Result, error) {
	c := newCircuit(cfg, loads)
	st0, err := c.dcOperatingPoint(scratch)
	if err != nil {
		return Result{}, err
	}
	var hs harmonicSet
	c.harmonics(&hs)
	if err := c.solvePhasors(cfg, &hs, caches); err != nil {
		return Result{}, err
	}

	steps := int(sampleWindow / sampleDt)
	settle := steps / 8
	h := float64(sampleDt)

	// Per-harmonic oscillators z_k = e^{jω_k t}, advanced by one complex
	// rotation per grid point; per-tile response coefficients split into
	// real/imaginary parts so the inner loop is four multiplies per
	// (tile, harmonic) pair with no complex arithmetic.
	var zr, zi, rr, ri [maxHarmonics]float64
	var cr, ci [maxHarmonics][DomainTiles]float64
	for k := 0; k < hs.n; k++ {
		s, co := math.Sincos(hs.omega[k] * h * float64(settle+1))
		zr[k], zi[k] = co, s
		s, co = math.Sincos(hs.omega[k] * h)
		rr[k], ri[k] = co, s
		for i := 0; i < DomainTiles; i++ {
			cr[k][i] = real(hs.resp[k][2+i])
			ci[k][i] = imag(hs.resp[k][2+i])
		}
	}
	acc := newPSNAccum(float64(cfg.Vdd))
	nh := hs.n
	for n := settle; n < steps; n++ {
		for i := 0; i < DomainTiles; i++ {
			v := st0.vt[i]
			for k := 0; k < nh; k++ {
				v += cr[k][i]*zr[k] - ci[k][i]*zi[k]
			}
			acc.record(i, v)
		}
		acc.points++
		for k := 0; k < nh; k++ {
			zr[k], zi[k] = zr[k]*rr[k]-zi[k]*ri[k], zr[k]*ri[k]+zi[k]*rr[k]
		}
	}
	return acc.result(steps), nil
}
