// Package power models supply voltage, clock frequency, and core/router
// power consumption for FinFET technology nodes from 45nm down to 7nm.
//
// The paper profiles applications with McPAT and ITRS data at a 7nm FinFET
// node; this package is the analytic substitute (see DESIGN.md). It captures
// the relationships the PARM heuristics depend on:
//
//   - maximum clock frequency grows with Vdd (alpha-power law above Vth);
//   - dynamic power grows as C*V^2*f, leakage grows superlinearly with V;
//   - switching activity of a tile is proportional to its power draw;
//   - per-node parameters (current density, wire resistance, decoupling
//     capacitance) trend so that peak PSN grows as technology scales,
//     reproducing Fig. 1 of the paper.
package power

import "fmt"

// Node identifies a fabrication process technology node.
type Node int

// Technology nodes covered by the model, matching Fig. 1 of the paper.
const (
	Node45 Node = 45
	Node32 Node = 32
	Node22 Node = 22
	Node16 Node = 16
	Node10 Node = 10
	Node7  Node = 7
)

// Nodes lists all supported technology nodes from oldest to newest.
var Nodes = []Node{Node45, Node32, Node22, Node16, Node10, Node7}

// String returns the conventional name of the node, e.g. "7nm".
func (n Node) String() string { return fmt.Sprintf("%dnm", int(n)) }

// NodeParams holds the per-technology-node electrical constants consumed by
// the frequency, power, and PDN models. Values are representative, derived
// from ITRS-style scaling trends rather than a proprietary PDK: each
// generation roughly doubles transistor density, increases current density,
// thins power-grid wires (raising Rc), and leaves less area for decap.
type NodeParams struct {
	Node Node

	// VNominal is the nominal (maximum) supply voltage.
	VNominal Volts
	// VNTC is the near-threshold operating voltage.
	VNTC Volts
	// VTh is the device threshold voltage.
	VTh Volts
	// Alpha is the velocity-saturation exponent of the alpha-power law.
	Alpha float64
	// FMax is the maximum clock frequency in Hz at VNominal.
	FMax float64

	// CEffCore is the effective switched capacitance of one core in farads.
	CEffCore float64
	// CEffRouter is the effective switched capacitance of one NoC router in
	// farads (per-cycle at full utilization).
	CEffRouter float64
	// LeakCore is the core leakage current in amperes at VNominal; leakage
	// scales superlinearly with voltage (see LeakagePower).
	LeakCore float64
	// LeakRouter is the router leakage current in amperes at VNominal.
	LeakRouter float64

	// PDN lumped-element parameters for one 4-tile power supply domain
	// (see package pdn and Fig. 2 of the paper).

	// RBump is the series resistance of the C4 bump + package in ohms.
	RBump float64
	// LBump is the series inductance of the bump + package in henries.
	LBump float64
	// RGrid is the on-chip power-grid resistance between the bump node and a
	// tile, per hop of grid distance, in ohms.
	RGrid float64
	// CDecap is the decoupling capacitance at each tile node in farads.
	CDecap float64
}

// nodeTable holds the calibrated per-node constants. Trends across nodes:
// density and current density rise, wire resistance rises, decap per tile
// falls — together these push peak PSN up at newer nodes (paper Fig. 1).
var nodeTable = map[Node]NodeParams{
	Node45: {
		Node: Node45, VNominal: 1.1, VNTC: 0.55, VTh: 0.40, Alpha: 1.5, FMax: 2.0e9,
		CEffCore: 1.8e-09, CEffRouter: 4.8e-10, LeakCore: 0.18, LeakRouter: 0.045,
		RBump: 0.0012, LBump: 2e-12, RGrid: 0.00225, CDecap: 2.4e-08,
	},
	Node32: {
		Node: Node32, VNominal: 1.0, VNTC: 0.50, VTh: 0.36, Alpha: 1.45, FMax: 2.2e9,
		CEffCore: 1.52e-09, CEffRouter: 4.2e-10, LeakCore: 0.20, LeakRouter: 0.050,
		RBump: 0.00135, LBump: 2.2e-12, RGrid: 0.00315, CDecap: 1.9e-08,
	},
	Node22: {
		Node: Node22, VNominal: 0.95, VNTC: 0.48, VTh: 0.34, Alpha: 1.4, FMax: 2.4e9,
		CEffCore: 1.28e-09, CEffRouter: 3.6e-10, LeakCore: 0.22, LeakRouter: 0.055,
		RBump: 0.0015, LBump: 2.4e-12, RGrid: 0.004275, CDecap: 1.5e-08,
	},
	Node16: {
		Node: Node16, VNominal: 0.90, VNTC: 0.45, VTh: 0.32, Alpha: 1.35, FMax: 2.6e9,
		CEffCore: 1.08e-09, CEffRouter: 3.2e-10, LeakCore: 0.24, LeakRouter: 0.060,
		RBump: 0.00165, LBump: 2.6e-12, RGrid: 0.00585, CDecap: 1.2e-08,
	},
	Node10: {
		Node: Node10, VNominal: 0.85, VNTC: 0.42, VTh: 0.30, Alpha: 1.32, FMax: 2.8e9,
		CEffCore: 9.2e-10, CEffRouter: 2.8e-10, LeakCore: 0.26, LeakRouter: 0.066,
		RBump: 0.0018, LBump: 2.8e-12, RGrid: 0.007875, CDecap: 9.5e-09,
	},
	Node7: {
		Node: Node7, VNominal: 0.80, VNTC: 0.40, VTh: 0.25, Alpha: 1.30, FMax: 3.0e9,
		CEffCore: 8e-10, CEffRouter: 2.4e-10, LeakCore: 0.28, LeakRouter: 0.072,
		RBump: 0.00195, LBump: 3e-12, RGrid: 0.01035, CDecap: 7.5e-09,
	},
}

// Params returns the electrical constants of node n and true, or a zero
// value and false when the node is not in the model.
func Params(n Node) (NodeParams, bool) {
	p, ok := nodeTable[n]
	return p, ok
}

// MustParams returns the electrical constants of node n, panicking for an
// unknown node. Unknown nodes are static misconfiguration, not runtime input.
func MustParams(n Node) NodeParams {
	p, ok := nodeTable[n]
	if !ok {
		panic(fmt.Sprintf("power: unknown technology node %d", int(n)))
	}
	return p
}

// vddStep is the regulator's supply-voltage grid (paper: 0.1 V steps).
const vddStep Volts = 0.1

// VddLevels returns the permissible supply voltages of node n in increasing
// order: VNTC up to VNominal in vddStep increments (paper: 0.4–0.8 V at
// 7nm).
func (p NodeParams) VddLevels() []Volts {
	var out []Volts
	for v := p.VNTC; v <= p.VNominal+1e-9; v += vddStep {
		out = append(out, round3(v))
	}
	return out
}

func round3(v Volts) Volts {
	return Volts(int64(v*1000+0.5)) / 1000
}
