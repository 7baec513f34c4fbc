package pdn

import (
	"math"
	"math/rand"
	"testing"

	"parm/internal/power"
)

// ltiTestLoads is a grid of load signatures spanning the shapes the runtime
// produces: idle, DC-only, single-tile, aligned same-class, staggered
// same-class, mixed-class, and an asymmetric worst case.
func ltiTestLoads(p power.NodeParams, vdd power.Volts) map[string][DomainTiles]TileLoad {
	i := p.TileCurrent(vdd, 0.9, 0.4)
	occ := func(classes [DomainTiles]Class, staggered bool) [DomainTiles]TileLoad {
		var o [DomainTiles]TileOccupant
		for k, cl := range classes {
			if cl == Idle {
				continue
			}
			o[k] = TileOccupant{IAvg: i, Class: cl, Staggered: staggered}
		}
		return BuildLoads(o)
	}
	return map[string][DomainTiles]TileLoad{
		"idle":      {},
		"dcOnly":    {{IAvg: i}, {IAvg: i / 2}, {IAvg: i / 3}, {IAvg: i / 4}},
		"single":    occ([DomainTiles]Class{High, Idle, Idle, Idle}, false),
		"aligned":   occ([DomainTiles]Class{High, High, High, High}, false),
		"staggered": occ([DomainTiles]Class{High, High, High, High}, true),
		"mixed":     occ([DomainTiles]Class{High, Low, High, Low}, true),
		"lopsided":  occ([DomainTiles]Class{High, High, Low, Idle}, false),
	}
}

// Cross-check of the phasor solver against the RK4 and expm test
// references, across every technology node and the load-signature grid.
// The expm reference solves the same initial-value problem as RK4 exactly,
// so it must agree to the integrator's truncation error; the phasor path
// drops the decaying start-up transient, so it is held to the looser
// steady-state bounds. Each is about 1.25x the largest deviation over this
// grid: 6.32e-4 on PeakPSN (32nm, aligned, 1.00 V) and 1.29e-5 on AvgPSN
// (45nm, aligned, 1.10 V). The phasor result is the production
// SimulateDomain's, bit for bit.
func TestModesAgree(t *testing.T) {
	const (
		expmTol       = 1e-6   // rk4 truncation at h=20ps
		steadyPeakTol = 8e-4   // residual transient in the measured window
		steadyAvgTol  = 1.6e-5 // the transient averages out over the window
	)
	for _, n := range power.Nodes {
		p := power.MustParams(n)
		for _, vdd := range []power.Volts{p.VNTC, p.VNominal} {
			loads := ltiTestLoads(p, vdd)
			for _, name := range []string{"idle", "dcOnly", "single", "aligned", "staggered", "mixed", "lopsided"} {
				ld := loads[name]
				cfg := Config{Params: p, Vdd: vdd}
				run := func(m string) Result {
					r, err := newRefSolver().solve(m, cfg, ld)
					if err != nil {
						t.Fatalf("%v %s %s: %v", n, name, m, err)
					}
					return r
				}
				rk4, expm, ph := run("rk4"), run("expm"), run("phasor")
				if prod, err := SimulateDomain(cfg, ld); err != nil || prod != ph {
					t.Errorf("%v %s: SimulateDomain differs from the phasor solve (%v)", n, name, err)
				}
				for i := 0; i < DomainTiles; i++ {
					if d := math.Abs(rk4.PeakPSN[i] - expm.PeakPSN[i]); d > expmTol {
						t.Errorf("%v %s vdd=%.2f tile %d: |rk4-expm| peak dev %.3g > %g",
							n, name, float64(vdd), i, d, expmTol)
					}
					if d := math.Abs(rk4.AvgPSN[i] - expm.AvgPSN[i]); d > expmTol {
						t.Errorf("%v %s vdd=%.2f tile %d: |rk4-expm| avg dev %.3g > %g",
							n, name, float64(vdd), i, d, expmTol)
					}
					if d := math.Abs(rk4.PeakPSN[i] - ph.PeakPSN[i]); d > steadyPeakTol {
						t.Errorf("%v %s vdd=%.2f tile %d: |rk4-phasor| peak dev %.3g > %g",
							n, name, float64(vdd), i, d, steadyPeakTol)
					}
					if d := math.Abs(rk4.AvgPSN[i] - ph.AvgPSN[i]); d > steadyAvgTol {
						t.Errorf("%v %s vdd=%.2f tile %d: |rk4-phasor| avg dev %.3g > %g",
							n, name, float64(vdd), i, d, steadyAvgTol)
					}
				}
			}
		}
	}
}

// TestPhasorLoopMatchesReference holds the production grid loop bit for bit
// equal to the per-tile loop it replaced (phasorGrid.runReference), on the
// inputs the runtime solves: random quantized load sets at every Vdd level
// of every node, each tile idle or running a High or Low task at a random
// core activity and router utilization, staggered or phase-aligned.
func TestPhasorLoopMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const setsPerLevel = 100
	bitsEqual := func(a, b [DomainTiles]float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	sets, idle, staggered, aligned := 0, 0, 0, 0
	var scratch solverScratch
	var lti ltiCaches
	for _, n := range power.Nodes {
		p := power.MustParams(n)
		for _, vdd := range p.VddLevels() {
			cfg := Config{Params: p, Vdd: vdd}
			for j := 0; j < setsPerLevel; j++ {
				var occ [DomainTiles]TileOccupant
				stagger := rng.Intn(2) == 0
				for i := range occ {
					if rng.Intn(4) == 0 {
						idle++
						continue
					}
					class := High
					if rng.Intn(2) == 0 {
						class = Low
					}
					occ[i] = TileOccupant{IAvg: p.TileCurrent(vdd, rng.Float64(), rng.Float64()), Class: class, Staggered: stagger}
				}
				if stagger {
					staggered++
				} else {
					aligned++
				}
				loads := QuantizeLoads(BuildLoads(occ))
				g, err := newPhasorGrid(cfg, loads, &scratch, &lti)
				if err != nil {
					t.Fatal(err)
				}
				got, want := g.run(), g.runReference()
				var gotV, wantV [DomainTiles]float64
				for i := range gotV {
					gotV[i], wantV[i] = float64(got.MinVoltage[i]), float64(want.MinVoltage[i])
				}
				if !bitsEqual(got.PeakPSN, want.PeakPSN) || !bitsEqual(got.AvgPSN, want.AvgPSN) ||
					!bitsEqual(gotV, wantV) || got.Steps != want.Steps {
					t.Fatalf("%v vdd=%.2f loads %+v:\n got  %+v\n want %+v", n, float64(vdd), loads, got, want)
				}
				sets++
			}
		}
	}
	if idle == 0 || staggered == 0 || aligned == 0 {
		t.Fatalf("inputs lack a shape: %d idle tiles, %d staggered and %d aligned sets", idle, staggered, aligned)
	}
	t.Logf("%d load sets bit for bit equal", sets)
}

// Every solver is individually deterministic: repeated identical solves
// are bit-identical, for the references and for the production path through
// a Solver (cached and uncached) and the one-shot path alike.
func TestModesDeterministic(t *testing.T) {
	p := power.MustParams(power.Node7)
	loads := ltiTestLoads(p, 0.5)["mixed"]
	cfg := Config{Params: p, Vdd: 0.5}
	for _, m := range []string{"rk4", "expm", "phasor"} {
		ref, err := newRefSolver().solve(m, cfg, loads)
		if err != nil {
			t.Fatal(err)
		}
		s := newRefSolver()
		for rep := 0; rep < 3; rep++ {
			if again, err := s.solve(m, cfg, loads); err != nil || again != ref {
				t.Errorf("%s rep %d: repeated solves differ (%v)", m, rep, err)
			}
		}
	}
	ref, err := SimulateDomain(cfg, loads)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := SimulateDomain(cfg, loads); err != nil || again != ref {
		t.Errorf("repeated one-shot solves differ (%v)", err)
	}
	// The Solver path quantizes the load signature before solving, so it is
	// compared against itself (cache hit vs miss), not the one-shot.
	s := NewSolver(NewSolveCache())
	sref, err := s.SimulateDomain(cfg, loads)
	if err != nil {
		t.Fatal(err)
	}
	uncached := NewSolver(nil)
	for rep := 0; rep < 3; rep++ {
		r, err := s.SimulateDomain(cfg, loads)
		if err != nil {
			t.Fatal(err)
		}
		if r != sref {
			t.Errorf("rep %d: cached solver result drifted", rep)
		}
		if r2, err := uncached.SimulateDomain(cfg, loads); err != nil || r2 != sref {
			t.Errorf("rep %d: uncached solver differs from cached (%v)", rep, err)
		}
	}
}

// A DC-only signature (no switching activity) has no harmonics: the phasor
// solution is exactly the DC operating point, with peak == avg droop.
func TestPhasorDCOnly(t *testing.T) {
	p := power.MustParams(power.Node7)
	loads := [DomainTiles]TileLoad{{IAvg: 0.3}, {IAvg: 0.3}, {IAvg: 0.3}, {IAvg: 0.3}}
	res, err := SimulateDomain(Config{Params: p, Vdd: 0.5}, loads)
	if err != nil {
		t.Fatal(err)
	}
	wantDrop := 4*0.3*p.RBump + 0.3*p.RGrid*1.5
	for i := 0; i < DomainTiles; i++ {
		if math.Abs(res.PeakPSN[i]-res.AvgPSN[i]) > 1e-12 {
			t.Errorf("tile %d: DC peak %g != avg %g", i, res.PeakPSN[i], res.AvgPSN[i])
		}
		gotDrop := float64(0.5 - res.MinVoltage[i])
		if math.Abs(gotDrop-wantDrop)/wantDrop > 0.02 {
			t.Errorf("tile %d DC drop %g, want %g", i, gotDrop, wantDrop)
		}
	}
}

// mulVec6 multiplies a 6x6 matrix by a 6-vector (test helper).
func mulVec6(m *[ltiStates][ltiStates]float64, v [ltiStates]float64) [ltiStates]float64 {
	var out [ltiStates]float64
	for i := 0; i < ltiStates; i++ {
		for j := 0; j < ltiStates; j++ {
			out[i] += m[i][j] * v[j]
		}
	}
	return out
}

// The state matrix must reproduce deriv: A·x + u(t) == deriv(x, I(t)) for
// arbitrary states, with u the source term plus the tile currents.
func TestLTIMatrixMatchesDeriv(t *testing.T) {
	p := power.MustParams(power.Node7)
	loads := ltiTestLoads(p, 0.5)["mixed"]
	c := newCircuit(Config{Params: p, Vdd: 0.5}, loads)
	a := c.ltiMatrix()
	st := state{il: 0.7, vb: 0.48, vt: [DomainTiles]float64{0.47, 0.46, 0.45, 0.44}}
	tm := 2.3e-9
	want := c.derivAt(st, tm)

	x := [ltiStates]float64{st.il, st.vb, st.vt[0], st.vt[1], st.vt[2], st.vt[3]}
	got := mulVec6(&a, x)
	got[0] += c.vs / c.lb
	for i := 0; i < DomainTiles; i++ {
		got[2+i] -= c.current(i, tm) / c.cd
	}
	wantVec := [ltiStates]float64{want.il, want.vb, want.vt[0], want.vt[1], want.vt[2], want.vt[3]}
	for i := range got {
		if math.Abs(got[i]-wantVec[i]) > 1e-6*(1+math.Abs(wantVec[i])) {
			t.Errorf("component %d: A·x+u = %g, deriv = %g", i, got[i], wantVec[i])
		}
	}
}

// expm6 unit checks: exp(0) = I, exp of a diagonal matrix, the semigroup
// property exp(2A) = exp(A)², and rejection of non-finite input.
func TestExpm6(t *testing.T) {
	var zero [ltiStates][ltiStates]float64
	phi, err := expm6(&zero)
	if err != nil {
		t.Fatal(err)
	}
	for i := range phi {
		for j := range phi[i] {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(phi[i][j]-want) > 1e-14 {
				t.Errorf("exp(0)[%d][%d] = %g", i, j, phi[i][j])
			}
		}
	}

	var diag [ltiStates][ltiStates]float64
	d := [ltiStates]float64{-1, 0.5, 2, -3, 0, 7}
	for i, v := range d {
		diag[i][i] = v
	}
	phi, err = expm6(&diag)
	if err != nil {
		t.Fatal(err)
	}
	for i := range phi {
		for j := range phi[i] {
			want := 0.0
			if i == j {
				want = math.Exp(d[i])
			}
			if math.Abs(phi[i][j]-want) > 1e-12*(1+want) {
				t.Errorf("exp(diag)[%d][%d] = %g, want %g", i, j, phi[i][j], want)
			}
		}
	}

	p := power.MustParams(power.Node7)
	c := newCircuit(Config{Params: p, Vdd: 0.5}, [DomainTiles]TileLoad{})
	a := c.ltiMatrix()
	h := 20e-12
	var ah, a2h [ltiStates][ltiStates]float64
	for i := range a {
		for j := range a[i] {
			ah[i][j] = a[i][j] * h
			a2h[i][j] = a[i][j] * 2 * h
		}
	}
	phiH, err := expm6(&ah)
	if err != nil {
		t.Fatal(err)
	}
	phi2H, err := expm6(&a2h)
	if err != nil {
		t.Fatal(err)
	}
	sq := mul6(&phiH, &phiH)
	for i := range sq {
		for j := range sq[i] {
			if math.Abs(sq[i][j]-phi2H[i][j]) > 1e-9*(1+math.Abs(phi2H[i][j])) {
				t.Errorf("semigroup violated at [%d][%d]: %g vs %g", i, j, sq[i][j], phi2H[i][j])
			}
		}
	}

	bad := zero
	bad[3][4] = math.NaN()
	if _, err := expm6(&bad); err == nil {
		t.Error("NaN input accepted")
	}
	bad[3][4] = math.Inf(1)
	if _, err := expm6(&bad); err == nil {
		t.Error("Inf input accepted")
	}
}

// The admittance factorization solves (jωI - A)X = F: multiply back and
// compare.
func TestAdmittanceFactorization(t *testing.T) {
	p := power.MustParams(power.Node7)
	c := newCircuit(Config{Params: p, Vdd: 0.5}, [DomainTiles]TileLoad{})
	a := c.ltiMatrix()
	omega := 2 * math.Pi * 125e6
	var fac cluFactor
	if err := factorAdmittance(&a, omega, &fac); err != nil {
		t.Fatal(err)
	}
	rhs := [ltiStates]complex128{0, 0, complex(1e9, -2e8), 0, complex(-3e8, 0), 0}
	x := rhs
	fac.solve(&x)
	for i := 0; i < ltiStates; i++ {
		got := complex(0, omega) * x[i]
		scale := omega * cabs1(x[i])
		for j := 0; j < ltiStates; j++ {
			got -= complex(a[i][j], 0) * x[j]
			scale += math.Abs(a[i][j]) * cabs1(x[j])
		}
		if cabs1(got-rhs[i]) > 1e-12*(scale+cabs1(rhs[i])) {
			t.Errorf("row %d: (jωI-A)x = %g, want %g", i, got, rhs[i])
		}
	}
}

// The per-solver admittance factorizations hit across load signatures and
// Vdd: a second solve at a different Vdd and load reuses them.
func TestLTICacheReuse(t *testing.T) {
	p := power.MustParams(power.Node7)
	s := NewSolver(nil)
	if _, err := s.SimulateDomain(Config{Params: p, Vdd: 0.5}, ltiTestLoads(p, 0.5)["mixed"]); err != nil {
		t.Fatal(err)
	}
	nFac := len(s.lti.factor)
	if nFac == 0 {
		t.Fatal("no cached admittance factorizations")
	}
	if _, err := s.SimulateDomain(Config{Params: p, Vdd: 0.7}, ltiTestLoads(p, 0.7)["staggered"]); err != nil {
		t.Fatal(err)
	}
	// staggered High tiles burst at the same two harmonic frequencies the
	// mixed signature already used, so no new factorizations either.
	if len(s.lti.factor) != nFac {
		t.Errorf("same-frequency solve grew the factor cache: %d -> %d", nFac, len(s.lti.factor))
	}
}
