// Package pdn models the on-chip power delivery network of a 4-tile power
// supply domain and estimates power supply noise (PSN) by transient
// simulation, replacing the SPICE model of the paper (§3.4, Fig. 2).
//
// The lumped circuit per domain:
//
//	Vs ──Rb──Lb──● B (bump node, package decap Cb)
//	             │ Rv (via) to each tile node
//	      T0 ──Rg── T1
//	       │         │ Rg    (2x2 on-chip grid; diagonal tiles couple
//	      T2 ──Rg── T3        only through two grid resistances)
//
// with decoupling capacitance Cdecap and a workload current source at every
// tile node. The two PSN mechanisms of the paper emerge directly: resistive
// IR drop from average current, and inductive di/dt droop from switching
// activity through Lb. Tiles at Manhattan distance 1 inside the domain share
// one grid resistance and interfere more than diagonal (distance-2) tiles,
// reproducing Fig. 3(b).
package pdn

import (
	"errors"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("pdn: singular linear system")

// ErrIllConditioned is returned when elimination survives the pivot test but
// the computed solution overflows or degenerates to NaN/Inf — the system is
// too ill-conditioned for the result to mean anything. With this guard,
// solveLinear never hands back a non-finite voltage with a nil error
// (FuzzSolveLinear pins the property).
var ErrIllConditioned = errors.New("pdn: ill-conditioned linear system")

// solveLinear solves the DC operating-point system a·x = b of a domain by
// Gaussian elimination with partial pivoting, eliminating in place (a and b
// are modified). It returns ErrSingular when no unique solution exists. The
// system is tiny (dcUnknowns unknowns), so a dense direct solve on the
// stack is the right tool.
func solveLinear(a *[dcUnknowns][dcUnknowns]float64, b *[dcUnknowns]float64) ([dcUnknowns]float64, error) {
	var x [dcUnknowns]float64
	// Singularity is judged relative to the matrix's own scale: conductance
	// matrices built from nano-Henry bumps or pico-Farad decaps can be
	// well-conditioned while every entry is far below any fixed absolute
	// threshold (and, symmetrically, huge entries can hide a rank deficiency
	// an absolute test would miss).
	scale := 0.0
	for _, row := range a {
		for _, v := range row {
			if abs(v) > scale {
				scale = abs(v)
			}
		}
	}
	if scale == 0 {
		return x, ErrSingular
	}
	// Pivots below scale*pivotRelTol are indistinguishable from elimination
	// round-off (~n*machine-epsilon per step for these tiny systems).
	const pivotRelTol = 1e-12
	const n = dcUnknowns
	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in this column.
		pivot := col
		for r := col + 1; r < n; r++ {
			if abs(a[r][col]) > abs(a[pivot][col]) {
				pivot = r
			}
		}
		if abs(a[pivot][col]) < scale*pivotRelTol {
			return x, ErrSingular
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
				a[r][c] -= float64(f * a[col][c])
			}
			b[r] -= float64(f * b[col])
		}
	}
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= float64(a[r][c] * x[c])
		}
		x[r] = sum / a[r][r]
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return x, ErrIllConditioned
		}
	}
	return x, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
