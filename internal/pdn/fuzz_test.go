package pdn

import (
	"encoding/binary"
	"math"
	"testing"

	"parm/internal/power"
)

// FuzzSolveLinear pins the solver's output contract: for any finite 3x3
// system, a nil error means every solution component is finite. Singular and
// ill-conditioned systems must be rejected with an error, never answered
// with NaN/Inf voltages — a non-finite DC operating point would poison an
// entire transient solve silently.
func FuzzSolveLinear(f *testing.F) {
	// Seed corpus: identity, a well-conditioned dense system, a singular
	// system (duplicate rows), a near-singular one, and wide dynamic range.
	f.Add(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 3.0)
	f.Add(4.0, 1.0, 2.0, 1.0, 5.0, 1.0, 2.0, 1.0, 6.0, 7.0, 8.0, 9.0)
	f.Add(1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 1.0, 1.0, 1.0)
	f.Add(1.0, 1.0, 1.0, 1.0, 1.0, 1.0+1e-15, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0)
	f.Add(1e-300, 0.0, 0.0, 0.0, 1e300, 0.0, 0.0, 0.0, 1.0, 1e-300, 1e300, 1.0)

	f.Fuzz(func(t *testing.T,
		a00, a01, a02, a10, a11, a12, a20, a21, a22, b0, b1, b2 float64) {
		vals := []float64{a00, a01, a02, a10, a11, a12, a20, a21, a22, b0, b1, b2}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("contract covers finite inputs only")
			}
		}
		a := [][]float64{
			{a00, a01, a02},
			{a10, a11, a12},
			{a20, a21, a22},
		}
		b := []float64{b0, b1, b2}
		x := make([]float64, len(a))
		if err := solveLinearInto(x, a, b); err != nil {
			return // rejection is always acceptable
		}
		for i, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("solveLinearInto returned non-finite x[%d]=%g with nil error", i, v)
			}
		}
	})
}

// FuzzExpm pins the matrix exponential's finiteness contract: for any finite
// 6x6 input, a nil error means every entry of Φ is finite. Overflowing or
// non-finite cases must be rejected with an error, never answered with
// NaN/Inf — a poisoned step propagator would corrupt every subsequent expm
// solve served from the Solver's Φ cache.
func FuzzExpm(f *testing.F) {
	seed := func(vals ...float64) {
		var m [ltiStates][ltiStates]float64
		for k, v := range vals {
			m[k/ltiStates][k%ltiStates] = v
		}
		buf := make([]byte, 8*ltiStates*ltiStates)
		for i := 0; i < ltiStates; i++ {
			for j := 0; j < ltiStates; j++ {
				binary.LittleEndian.PutUint64(buf[8*(i*ltiStates+j):], math.Float64bits(m[i][j]))
			}
		}
		f.Add(buf)
	}
	// Zero matrix, identity-ish, and the real A·h of the default 7nm solve
	// (huge off-diagonal dynamic range: 1/lb ~ 3e11 against gv/cb ~ 1e9).
	seed()
	seed(1, 0, 0, 0, 0, 0, 0, 1)
	{
		cfg := Config{Params: power.MustParams(power.Node7), Vdd: 0.5}
		c := newCircuit(cfg, [DomainTiles]TileLoad{})
		a := c.ltiMatrix()
		h := float64(sampleDt)
		flat := make([]float64, 0, ltiStates*ltiStates)
		for i := range a {
			for j := range a[i] {
				flat = append(flat, a[i][j]*h)
			}
		}
		seed(flat...)
	}
	seed(709, 0, 0, 0, 0, 0, 0, 710) // exp near the float64 overflow edge

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8*ltiStates*ltiStates {
			t.Skip("short input")
		}
		var m [ltiStates][ltiStates]float64
		for i := 0; i < ltiStates; i++ {
			for j := 0; j < ltiStates; j++ {
				v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*(i*ltiStates+j):]))
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Skip("contract covers finite inputs only")
				}
				m[i][j] = v
			}
		}
		phi, err := expm6(&m)
		if err != nil {
			return // rejection is always acceptable
		}
		for i := range phi {
			for j := range phi[i] {
				if math.IsNaN(phi[i][j]) || math.IsInf(phi[i][j], 0) {
					t.Fatalf("expm6 returned non-finite Φ[%d][%d]=%g with nil error", i, j, phi[i][j])
				}
			}
		}
	})
}
