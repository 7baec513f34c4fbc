package pdn

// The test references the phasor solver is checked against: the classic
// RK4 integration of the domain transient, and the exact matrix-exponential
// stepper that removes RK4's truncation error but keeps the start-up
// transient the phasor path drops (DESIGN.md §8), plus the per-tile grid
// loop the phasor path's loop replaced. None runs outside the tests;
// TestModesAgree bounds the three solvers pairwise, and
// TestPhasorLoopMatchesReference holds the two loops bit for bit equal.

import (
	"fmt"
	"math"

	"parm/internal/power"
)

// refSolver runs one reference algorithm with reusable buffers, so the
// benchmarks time the solve, not its allocation.
type refSolver struct {
	scratch solverScratch
	tables  [DomainTiles][]float64
	lti     ltiCaches
	phis    phiCache
}

func newRefSolver() *refSolver { return &refSolver{phis: make(phiCache)} }

// solve applies the package validation, then runs the named
// reference: "rk4", "expm", "phasor" (the production path) or "phasor-ref"
// (the production setup with the reference grid loop).
func (s *refSolver) solve(mode string, cfg Config, loads [DomainTiles]TileLoad) (Result, error) {
	if err := validate(cfg, loads); err != nil {
		return Result{}, err
	}
	switch mode {
	case "rk4":
		return simulateRK4(cfg, loads, &s.scratch, &s.tables)
	case "expm":
		return simulateExpm(cfg, loads, &s.scratch, &s.lti, s.phis)
	case "phasor":
		return simulatePhasor(cfg, loads, &s.scratch, &s.lti)
	case "phasor-ref":
		g, err := newPhasorGrid(cfg, loads, &s.scratch, &s.lti)
		if err != nil {
			return Result{}, err
		}
		return g.runReference(), nil
	}
	return Result{}, fmt.Errorf("pdn: unknown reference solver %q", mode)
}

// current returns tile slot i's instantaneous current draw at time t. The
// switching waveform is a smoothed square wave (fundamental + 3rd harmonic),
// which has the sharp di/dt edges that excite inductive droop.
func (c *circuit) current(i int, t float64) float64 {
	ld := c.loads[i]
	if ld.IAvg <= 0 {
		return 0
	}
	ph := c.burstW[i]*t + ld.Phase
	s := math.Sin(ph) + math.Sin(3*ph)/3
	// Normalize so the swing stays within ±1 (max of sin + sin3/3 ≈ 1.155).
	s /= 1.155
	return ld.IAvg * (1 + ld.Activity*s)
}

// currentTable precomputes every tile's current waveform on the half-step
// grid the RK4 integrator samples (t, t+h/2, t+h), using a sine rotation
// recurrence so the hot loop performs no trig calls. Entry [i][k] is tile
// i's current at time k*h/2. The table rows are reused (and grown only
// when the window lengthens) instead of allocating fresh tables.
func (c *circuit) currentTable(h float64, steps int, table *[DomainTiles][]float64) [DomainTiles][]float64 {
	var out [DomainTiles][]float64
	n := 2*steps + 2
	for i := 0; i < DomainTiles; i++ {
		if cap(table[i]) >= n {
			out[i] = table[i][:n]
			for k := range out[i] {
				out[i][k] = 0
			}
		} else {
			// First call (or a longer window): grow once, reuse forever.
			out[i] = make([]float64, n)
			table[i] = out[i]
		}
		ld := c.loads[i]
		if ld.IAvg <= 0 {
			continue
		}
		// Oscillator states for the fundamental and the 3rd
		// harmonic, advanced by rotation: sin/cos(θ+Δ) from sin/cos(θ).
		d1 := c.burstW[i] * h / 2
		s1, c1 := math.Sin(ld.Phase), math.Cos(ld.Phase)
		sd1, cd1 := math.Sin(d1), math.Cos(d1)
		s3, c3 := math.Sin(3*ld.Phase), math.Cos(3*ld.Phase)
		sd3, cd3 := math.Sin(3*d1), math.Cos(3*d1)
		for k := 0; k < n; k++ {
			s := s1 + s3/3
			out[i][k] = ld.IAvg * (1 + ld.Activity*s/1.155)
			s1, c1 = s1*cd1+c1*sd1, c1*cd1-s1*sd1
			s3, c3 = s3*cd3+c3*sd3, c3*cd3-s3*sd3
		}
	}
	return out
}

// deriv computes the time derivative of the state, with tile currents given
// by cur (one value per tile, already evaluated at the step's time point).
func (c *circuit) deriv(s state, cur *[DomainTiles]float64) state {
	var d state
	// Inductor: L di/dt = Vs - Rb*iL - vB
	d.il = (c.vs - c.rb*s.il - s.vb) / c.lb
	// Bump node: Cb dvB/dt = iL - sum_i (vB - vTi)/Rv
	sumV := 0.0
	for i := 0; i < DomainTiles; i++ {
		sumV += (s.vb - s.vt[i]) * c.gv
	}
	d.vb = (s.il - sumV) / c.cb
	// Tile nodes: Cd dvTi/dt = (vB-vTi)/Rv + sum_adj (vTj-vTi)/Rg - Ii(t)
	for i := 0; i < DomainTiles; i++ {
		sum := (s.vb - s.vt[i]) * c.gv
		for j := 0; j < DomainTiles; j++ {
			if domainAdjacency[i][j] {
				sum += (s.vt[j] - s.vt[i]) * c.gg
			}
		}
		sum -= cur[i]
		d.vt[i] = sum / c.cd
	}
	return d
}

// derivAt evaluates deriv with currents taken analytically at time t, to
// cross-check the tabulated path.
func (c *circuit) derivAt(s state, t float64) state {
	var cur [DomainTiles]float64
	for i := range cur {
		cur[i] = c.current(i, t)
	}
	return c.deriv(s, &cur)
}

// addScaled returns a + h·b.
func addScaled(a state, b state, h float64) state {
	var out state
	out.il = a.il + h*b.il
	out.vb = a.vb + h*b.vb
	for i := range a.vt {
		out.vt[i] = a.vt[i] + h*b.vt[i]
	}
	return out
}

// simulateRK4 is the numerical-integration reference: classic RK4 over the
// tabulated current waveforms. The exact solvers are cross-checked against
// it. cfg must have defaults applied and inputs validated.
func simulateRK4(cfg Config, loads [DomainTiles]TileLoad, scratch *solverScratch, tables *[DomainTiles][]float64) (Result, error) {
	c := newCircuit(cfg, loads)
	st, err := c.dcOperatingPoint(scratch)
	if err != nil {
		return Result{}, err
	}

	vdd := float64(cfg.Vdd)
	var res Result
	for i := range res.MinVoltage {
		res.MinVoltage[i] = cfg.Vdd
	}
	steps := int(sampleWindow / sampleDt)
	// Skip a short settle window before recording, so the measurement
	// reflects steady switching noise rather than the modulation turn-on.
	settle := steps / 8
	var sumPSN [DomainTiles]float64
	recorded := 0

	h := float64(sampleDt)
	table := c.currentTable(h, steps, tables)
	var cur0, curH, cur1 [DomainTiles]float64
	for n := 0; n < steps; n++ {
		for i := 0; i < DomainTiles; i++ {
			cur0[i] = table[i][2*n]
			curH[i] = table[i][2*n+1]
			cur1[i] = table[i][2*n+2]
		}
		// Classic RK4 step.
		k1 := c.deriv(st, &cur0)
		k2 := c.deriv(addScaled(st, k1, h/2), &curH)
		k3 := c.deriv(addScaled(st, k2, h/2), &curH)
		k4 := c.deriv(addScaled(st, k3, h), &cur1)
		st.il += h / 6 * (k1.il + 2*k2.il + 2*k3.il + k4.il)
		st.vb += h / 6 * (k1.vb + 2*k2.vb + 2*k3.vb + k4.vb)
		for i := range st.vt {
			st.vt[i] += h / 6 * (k1.vt[i] + 2*k2.vt[i] + 2*k3.vt[i] + k4.vt[i])
		}
		if n < settle {
			continue
		}
		recorded++
		for i := range st.vt {
			v := st.vt[i]
			if power.Volts(v) < res.MinVoltage[i] {
				res.MinVoltage[i] = power.Volts(v)
			}
			droop := (vdd - v) / vdd
			if droop < 0 {
				droop = 0 // overshoot above Vdd is not supply droop
			}
			sumPSN[i] += droop
			if droop > res.PeakPSN[i] {
				res.PeakPSN[i] = droop
			}
		}
	}
	for i := range sumPSN {
		if recorded > 0 {
			res.AvgPSN[i] = sumPSN[i] / float64(recorded)
		}
	}
	res.Steps = steps
	return res, nil
}

// Padé [13/13] numerator coefficients for the matrix exponential
// (Higham, "The scaling and squaring method for the matrix exponential
// revisited", 2005).
var padeCoef = [14]float64{
	64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
	129060195264000, 10559470521600, 670442572800, 33522128640,
	1323241920, 40840800, 960960, 16380, 182, 1,
}

// expmTheta13 is the 1-norm bound under which the [13/13] Padé approximant
// reaches double-precision accuracy without scaling.
const expmTheta13 = 5.371920351148152

// expm6 computes Φ = exp(M) for a dense 6x6 matrix by scaling-and-squaring
// with a [13/13] Padé approximant. It shares solveLinearInto's finiteness
// contract: a nil error implies every entry of Φ is finite; non-finite
// inputs, a singular Padé denominator, or overflow during squaring are
// rejected with an error instead of handing back NaN/Inf silently
// (FuzzExpm pins the property).
func expm6(m *[ltiStates][ltiStates]float64) ([ltiStates][ltiStates]float64, error) {
	var phi [ltiStates][ltiStates]float64
	norm := 0.0 // 1-norm: max column sum of absolute values
	for col := 0; col < ltiStates; col++ {
		sum := 0.0
		for row := 0; row < ltiStates; row++ {
			v := m[row][col]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return phi, fmt.Errorf("pdn: non-finite state matrix entry [%d][%d]", row, col)
			}
			sum += abs(v)
		}
		if sum > norm {
			norm = sum
		}
	}
	// Scale M by 2^-s so the Padé approximant is accurate, then square s
	// times. exp of any finite matrix is finite mathematically, but the
	// squaring can overflow float64 when exp(M) itself exceeds its range;
	// the final finiteness check below rejects that case.
	s := 0
	if norm > expmTheta13 {
		s = int(math.Ceil(math.Log2(norm / expmTheta13)))
	}
	a := *m
	if s > 0 {
		inv := math.Ldexp(1, -s)
		for i := range a {
			for j := range a[i] {
				a[i][j] *= inv
			}
		}
	}

	// Powers of the scaled matrix.
	a2 := mul6(&a, &a)
	a4 := mul6(&a2, &a2)
	a6 := mul6(&a2, &a4)

	// U = A·(A6·(b13·A6 + b11·A4 + b9·A2) + b7·A6 + b5·A4 + b3·A2 + b1·I)
	// V =    A6·(b12·A6 + b10·A4 + b8·A2) + b6·A6 + b4·A4 + b2·A2 + b0·I
	var w, v [ltiStates][ltiStates]float64
	for i := 0; i < ltiStates; i++ {
		for j := 0; j < ltiStates; j++ {
			w[i][j] = padeCoef[13]*a6[i][j] + padeCoef[11]*a4[i][j] + padeCoef[9]*a2[i][j]
			v[i][j] = padeCoef[12]*a6[i][j] + padeCoef[10]*a4[i][j] + padeCoef[8]*a2[i][j]
		}
	}
	w = mul6(&a6, &w)
	v = mul6(&a6, &v)
	for i := 0; i < ltiStates; i++ {
		for j := 0; j < ltiStates; j++ {
			w[i][j] += padeCoef[7]*a6[i][j] + padeCoef[5]*a4[i][j] + padeCoef[3]*a2[i][j]
			v[i][j] += padeCoef[6]*a6[i][j] + padeCoef[4]*a4[i][j] + padeCoef[2]*a2[i][j]
		}
		w[i][i] += padeCoef[1]
		v[i][i] += padeCoef[0]
	}
	u := mul6(&a, &w)

	// Φ = (V - U)^-1 (V + U), solved column by column.
	var den, num [ltiStates][ltiStates]float64
	for i := 0; i < ltiStates; i++ {
		for j := 0; j < ltiStates; j++ {
			den[i][j] = v[i][j] - u[i][j]
			num[i][j] = v[i][j] + u[i][j]
		}
	}
	if err := solve6(&den, &num, &phi); err != nil {
		return phi, fmt.Errorf("pdn: Padé denominator: %w", err)
	}
	for k := 0; k < s; k++ {
		phi = mul6(&phi, &phi)
	}
	for i := range phi {
		for j := range phi[i] {
			if math.IsNaN(phi[i][j]) || math.IsInf(phi[i][j], 0) {
				return phi, fmt.Errorf("pdn: matrix exponential overflow (1-norm %g)", norm)
			}
		}
	}
	return phi, nil
}

// mul6 returns the 6x6 matrix product a·b.
func mul6(a, b *[ltiStates][ltiStates]float64) [ltiStates][ltiStates]float64 {
	var out [ltiStates][ltiStates]float64
	for i := 0; i < ltiStates; i++ {
		for k := 0; k < ltiStates; k++ {
			f := a[i][k]
			if f == 0 {
				continue
			}
			for j := 0; j < ltiStates; j++ {
				out[i][j] += f * b[k][j]
			}
		}
	}
	return out
}

// solve6 solves a·x = b for the 6x6 unknown matrix x by Gaussian
// elimination with partial pivoting. a and b are consumed as workspace.
func solve6(a, b, x *[ltiStates][ltiStates]float64) error {
	n := ltiStates
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if abs(a[r][col]) > abs(a[pivot][col]) {
				pivot = r
			}
		}
		if a[pivot][col] == 0 {
			return ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			for c := 0; c < n; c++ {
				b[r][c] -= f * b[col][c]
			}
		}
	}
	for r := n - 1; r >= 0; r-- {
		for c := 0; c < n; c++ {
			sum := b[r][c]
			for k := r + 1; k < n; k++ {
				sum -= a[r][k] * x[k][c]
			}
			x[r][c] = sum / a[r][r]
		}
	}
	return nil
}

// phiCache memoizes step propagators Φ = exp(A·h) across expm solves, h
// being the sampling step sampleDt. The state matrix depends only on the
// technology node's element values; Vdd and the load signature never
// enter A.
type phiCache map[power.NodeParams]*[ltiStates][ltiStates]float64

// phiFor returns the cached Φ = exp(A·sampleDt) for the circuit, computing
// and memoizing it on first use. A nil cache computes without storing.
func (pc phiCache) phiFor(c *circuit, params power.NodeParams) (*[ltiStates][ltiStates]float64, error) {
	if phi, ok := pc[params]; ok {
		return phi, nil
	}
	a := c.ltiMatrix()
	h := float64(sampleDt)
	for i := range a {
		for j := range a[i] {
			a[i][j] *= h
		}
	}
	phi, err := expm6(&a)
	if err != nil {
		return nil, err
	}
	if pc != nil {
		pc[params] = &phi
	}
	return &phi, nil
}

// simulateExpm steps the exact discrete-time solution from the DC operating
// point: x(t) = x_p(t) + w(t) with w advanced by one 6x6 multiply with Φ =
// exp(A·h) per step. It is the RK4 trajectory with the truncation error
// removed — including the start-up transient the phasor path drops — and
// serves as the bridge between the two (TestModesAgree pins all three
// pairwise).
func simulateExpm(cfg Config, loads [DomainTiles]TileLoad, scratch *solverScratch, caches *ltiCaches, phis phiCache) (Result, error) {
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
	phi, err := phis.phiFor(&c, cfg.Params)
	if err != nil {
		return Result{}, err
	}

	steps := int(sampleWindow / sampleDt)
	settle := steps / 8
	h := float64(sampleDt)

	// Homogeneous state w(0) = x(0) - x_p(0): the DC initial condition
	// minus the particular solution at t=0 leaves -Σ_k Re(X_k).
	var w [ltiStates]float64
	for k := 0; k < hs.n; k++ {
		for j := 0; j < ltiStates; j++ {
			w[j] -= real(hs.resp[k][j])
		}
	}
	var zr, zi, rr, ri [maxHarmonics]float64
	var cr, ci [maxHarmonics][DomainTiles]float64
	for k := 0; k < hs.n; k++ {
		zr[k], zi[k] = 1, 0
		s, co := math.Sincos(hs.omega[k] * h)
		rr[k], ri[k] = co, s
		for i := 0; i < DomainTiles; i++ {
			cr[k][i] = real(hs.resp[k][2+i])
			ci[k][i] = imag(hs.resp[k][2+i])
		}
	}
	acc := newPSNAccum(float64(cfg.Vdd))
	nh := hs.n
	for n := 0; n < steps; n++ {
		// Advance to t = (n+1)h: w by the propagator, the oscillators by
		// one rotation.
		var wn [ltiStates]float64
		for i := 0; i < ltiStates; i++ {
			s := 0.0
			for j := 0; j < ltiStates; j++ {
				s += phi[i][j] * w[j]
			}
			wn[i] = s
		}
		w = wn
		for k := 0; k < nh; k++ {
			zr[k], zi[k] = zr[k]*rr[k]-zi[k]*ri[k], zr[k]*ri[k]+zi[k]*rr[k]
		}
		if n < settle {
			continue
		}
		for i := 0; i < DomainTiles; i++ {
			v := st0.vt[i] + w[2+i]
			for k := 0; k < nh; k++ {
				v += cr[k][i]*zr[k] - ci[k][i]*zi[k]
			}
			acc.record(i, v)
		}
		acc.points++
	}
	return acc.result(steps), nil
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

// runReference is the grid loop phasorGrid.run replaced, kept verbatim:
// tile by tile, each tile's harmonic sum recorded through psnAccum, the
// oscillators rotated after all four tiles.
func (g phasorGrid) runReference() Result {
	st0, zr, zi, rr, ri, cr, ci := g, g.zr, g.zi, g.rr, g.ri, g.cr, g.ci
	acc := newPSNAccum(g.vdd)
	nh := g.n
	for n := gridSettle; n < gridSteps; n++ {
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
	return acc.result(gridSteps)
}
