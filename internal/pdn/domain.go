package pdn

import (
	"fmt"
	"math"

	"parm/internal/power"
)

// DomainTiles is the number of tiles in one power supply domain (a 2x2
// block with its own voltage regulator, paper §3.3).
const DomainTiles = 4

// Tile indices within a domain, laid out as a 2x2 block:
//
//	2 3      (y=1)
//	0 1      (y=0)
//
// Tiles 0-1, 0-2, 1-3, 2-3 are adjacent (Manhattan distance 1); pairs 0-3
// and 1-2 are diagonal (distance 2).
var domainAdjacency = [DomainTiles][DomainTiles]bool{
	0: {1: true, 2: true},
	1: {0: true, 3: true},
	2: {0: true, 3: true},
	3: {1: true, 2: true},
}

// DomainDistance returns the Manhattan distance between two tile slots of a
// 2x2 domain (0 for identical slots, 1 for adjacent, 2 for diagonal).
func DomainDistance(a, b int) int {
	if a == b {
		return 0
	}
	if domainAdjacency[a][b] {
		return 1
	}
	return 2
}

// TileLoad describes the workload current drawn by one tile, modeled as a
// current source (paper §3.4): a DC component from average power plus a
// switching component whose amplitude tracks the tile's switching activity.
//
// Same-class threads of an SPMD application are barrier-synchronized, so
// the runtime can stagger their burst phases (staggered core activation,
// paper ref [11]); threads of different activity classes burst at different
// fundamental frequencies, so their waveforms beat and periodically align
// in the worst case. This is what makes High-Low adjacency noisier than
// High-High or Low-Low (paper Fig. 3b) and is the physical lever behind the
// PARM clustering heuristic.
type TileLoad struct {
	// IAvg is the average current in amperes (tile power / Vdd).
	IAvg float64
	// Activity is the switching modulation depth in [0,1]: the fraction of
	// IAvg that swings with workload bursts. High-activity tasks have large
	// Activity; idle tiles have 0.
	Activity float64
	// Phase offsets this tile's switching waveform, in radians. Aligned
	// phases (synchronized bursts) produce the worst-case droop; the
	// staggering of same-class threads is expressed by spreading phases.
	Phase float64
	// BurstHz overrides the fundamental switching frequency for this tile.
	// Zero uses defaultBurstHz. Different activity classes burst at
	// different frequencies.
	BurstHz float64
}

// Config parameterizes one transient domain simulation.
type Config struct {
	// Params supplies the per-technology-node electrical constants.
	Params power.NodeParams
	// Vdd is the regulator output voltage.
	Vdd power.Volts
}

// The sampling grid and the default switching frequency are fixed platform
// constants (DESIGN.md §5).
const (
	// sampleDt is the sampling step.
	sampleDt power.Seconds = 20e-12
	// sampleWindow is the simulated window.
	sampleWindow power.Seconds = 60e-9
	// defaultBurstHz is the fundamental frequency of the workload switching
	// waveform of a tile load that sets none: 125 MHz, near the package LC
	// resonance where droop is worst.
	defaultBurstHz = 125e6
)

// Result reports the PSN observed at each tile of the domain over the
// simulated window. PSN values are fractions of Vdd (0.05 == 5 %).
type Result struct {
	// PeakPSN is the maximum instantaneous supply droop per tile.
	PeakPSN [DomainTiles]float64
	// AvgPSN is the time-averaged supply droop per tile.
	AvgPSN [DomainTiles]float64
	// MinVoltage is the lowest instantaneous voltage per tile.
	MinVoltage [DomainTiles]power.Volts
	// Steps is the number of sampling steps in the window.
	Steps int
}

// DomainPeak returns the largest per-tile peak PSN in the domain.
func (r Result) DomainPeak() float64 {
	m := 0.0
	for _, v := range r.PeakPSN {
		if v > m {
			m = v
		}
	}
	return m
}

// DomainAvg returns the mean of the per-tile average PSN values.
func (r Result) DomainAvg() float64 {
	s := 0.0
	for _, v := range r.AvgPSN {
		s += v
	}
	return s / DomainTiles
}

// circuit holds the assembled element values for one domain simulation.
type circuit struct {
	rb, lb float64              // bump branch
	cb     float64              // package-side decap at bump node
	rv     float64              // via resistance bump node -> each tile node
	rg     float64              // grid resistance between adjacent tile nodes
	cd     float64              // decap at each tile node
	vs     float64              // source voltage
	gv, gg float64              // conductances 1/rv, 1/rg
	burstW [DomainTiles]float64 // per-tile burst angular frequency
	loads  [DomainTiles]TileLoad
}

func newCircuit(cfg Config, loads [DomainTiles]TileLoad) circuit {
	p := cfg.Params
	c := circuit{
		rb:    p.RBump,
		lb:    p.LBump,
		cb:    p.CDecap * 2, // package decap is lumped, larger than tile decap
		rv:    p.RGrid * 1.5,
		rg:    p.RGrid,
		cd:    p.CDecap,
		vs:    float64(cfg.Vdd),
		gv:    1 / (p.RGrid * 1.5),
		gg:    1 / p.RGrid,
		loads: loads,
	}
	for i, ld := range loads {
		hz := ld.BurstHz
		if hz <= 0 {
			hz = defaultBurstHz
		}
		c.burstW[i] = 2 * math.Pi * hz
	}
	return c
}

// dcUnknowns is the DC operating-point system size: the bump node voltage
// plus one voltage per tile node.
const dcUnknowns = 1 + DomainTiles

// solverScratch holds the DC operating-point system one domain solve reuses
// across calls. A Solver threads one scratch through consecutive solves so
// the warm path performs no allocation at all (TestPSNStepAllocs pins 0
// allocs/op).
type solverScratch struct {
	// dcRows backs the DC conductance matrix; dcA holds the row slices the
	// pivoting solver permutes in place.
	dcRows [dcUnknowns][dcUnknowns]float64
	dcA    [dcUnknowns][]float64
	dcB    [dcUnknowns]float64
	dcX    [dcUnknowns]float64
}

// state is the circuit state vector: inductor current, bump node voltage,
// and the four tile node voltages.
type state struct {
	il float64
	vb float64
	vt [DomainTiles]float64
}

// dcOperatingPoint solves the resistive DC network with the average tile
// currents, giving an initial condition free of artificial start-up droop.
// The system lives entirely in scratch: matrix, right-hand side, and
// solution are reused buffers, so the warm path allocates nothing.
func (c *circuit) dcOperatingPoint(scr *solverScratch) (state, error) {
	// Unknowns: x[0]=vB, x[1..4]=vT0..vT3. iL = total current.
	if scr.dcA[0] == nil {
		for i := range scr.dcA {
			scr.dcA[i] = scr.dcRows[i][:]
		}
	}
	a := scr.dcA[:]
	for i := range a {
		row := a[i]
		for j := range row {
			row[j] = 0
		}
	}
	b := scr.dcB[:]
	for i := range b {
		b[i] = 0
	}
	total := 0.0
	for i := 0; i < DomainTiles; i++ {
		total += c.loads[i].IAvg
	}
	// Bump node KCL: (Vs - vB)/Rb = sum_i (vB - vTi)/Rv
	a[0][0] = 1/c.rb + DomainTiles*c.gv
	for i := 0; i < DomainTiles; i++ {
		a[0][1+i] = -c.gv
	}
	b[0] = c.vs / c.rb
	// Tile node KCL.
	for i := 0; i < DomainTiles; i++ {
		r := 1 + i
		a[r][0] = -c.gv
		a[r][r] = c.gv
		for j := 0; j < DomainTiles; j++ {
			if domainAdjacency[i][j] {
				a[r][r] += c.gg
				a[r][1+j] -= c.gg
			}
		}
		b[r] = -c.loads[i].IAvg
	}
	x := scr.dcX[:]
	if err := solveLinearInto(x, a, b); err != nil {
		return state{}, err
	}
	st := state{il: total, vb: x[0]}
	for i := 0; i < DomainTiles; i++ {
		st.vt[i] = x[1+i]
	}
	return st, nil
}

// validate rejects non-physical configurations (non-positive Vdd or element
// values, out-of-range loads).
func validate(cfg Config, loads [DomainTiles]TileLoad) error {
	if cfg.Vdd <= 0 {
		return fmt.Errorf("pdn: non-positive Vdd %g", float64(cfg.Vdd))
	}
	p := cfg.Params
	if p.RBump <= 0 || p.LBump <= 0 || p.RGrid <= 0 || p.CDecap <= 0 {
		return fmt.Errorf("pdn: non-physical node parameters %+v", p)
	}
	for i, ld := range loads {
		if ld.IAvg < 0 || ld.Activity < 0 || ld.Activity > 1 {
			return fmt.Errorf("pdn: invalid load %d: %+v", i, ld)
		}
	}
	return nil
}

// SimulateDomain solves one 4-tile domain's periodic steady state on the
// sampling grid (simulatePhasor) and returns the observed PSN. It returns an
// error for non-physical configurations (non-positive Vdd or element
// values).
//
// This is the exact-input path used by the figure experiments; the runtime
// measurement pipeline goes through Solver.SimulateDomain, which quantizes
// the load signature and memoizes repeated solves.
func SimulateDomain(cfg Config, loads [DomainTiles]TileLoad) (Result, error) {
	if err := validate(cfg, loads); err != nil {
		return Result{}, err
	}
	return simulatePhasor(cfg, loads, &solverScratch{}, nil)
}
