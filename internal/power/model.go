package power

import (
	"fmt"
	"math"
)

// Frequency returns the maximum stable clock frequency in Hz at supply
// voltage vdd for node parameters p, using the alpha-power law
//
//	f(V) ∝ (V - Vth)^alpha / V
//
// normalized so that f(VNominal) == FMax. Voltages at or below threshold
// yield 0.
func (p NodeParams) Frequency(vdd Volts) float64 {
	if vdd <= p.VTh {
		return 0
	}
	shape := func(v Volts) float64 {
		return math.Pow(float64(v-p.VTh), p.Alpha) / float64(v)
	}
	return p.FMax * shape(vdd) / shape(p.VNominal)
}

// DynamicCorePower returns the dynamic power in watts of one core running at
// vdd with the given switching activity factor in [0,1]. The core clock is
// Frequency(vdd).
func (p NodeParams) DynamicCorePower(vdd Volts, activity float64) Watts {
	v := float64(vdd)
	return Watts(p.CEffCore * v * v * p.Frequency(vdd) * clamp01(activity))
}

// DynamicRouterPower returns the dynamic power in watts of one NoC router at
// vdd with the given utilization (forwarded flits per cycle, per port,
// averaged) in [0,1].
func (p NodeParams) DynamicRouterPower(vdd Volts, utilization float64) Watts {
	v := float64(vdd)
	return Watts(p.CEffRouter * v * v * p.Frequency(vdd) * clamp01(utilization))
}

// LeakagePower returns the leakage power in watts at vdd of a block whose
// leakage current at VNominal is ileakNominal. Leakage current is modeled
// with an exponential voltage dependence (DIBL), roughly halving for each
// 0.15 V below nominal.
func (p NodeParams) LeakagePower(vdd Volts, ileakNominal float64) Watts {
	const diblScale = 0.15 / math.Ln2
	i := ileakNominal * math.Exp(float64(vdd-p.VNominal)/diblScale)
	return Watts(float64(vdd) * i)
}

// CoreLeakage returns the core leakage power in watts at vdd.
func (p NodeParams) CoreLeakage(vdd Volts) Watts {
	return p.LeakagePower(vdd, p.LeakCore)
}

// RouterLeakage returns the router leakage power in watts at vdd.
func (p NodeParams) RouterLeakage(vdd Volts) Watts {
	return p.LeakagePower(vdd, p.LeakRouter)
}

// TilePower returns the total power in watts of one tile (core + router) at
// vdd, given the core switching activity and router utilization factors.
func (p NodeParams) TilePower(vdd Volts, coreActivity, routerUtil float64) Watts {
	return p.DynamicCorePower(vdd, coreActivity) + p.CoreLeakage(vdd) +
		p.DynamicRouterPower(vdd, routerUtil) + p.RouterLeakage(vdd)
}

// TileCurrent returns the average supply current in amperes drawn by one
// tile at vdd with the given activity factors. The PDN solver models each
// tile's workload as a current source of this magnitude (paper §3.4).
func (p NodeParams) TileCurrent(vdd Volts, coreActivity, routerUtil float64) float64 {
	if vdd <= 0 {
		return 0
	}
	return float64(p.TilePower(vdd, coreActivity, routerUtil)) / float64(vdd)
}

// Budget describes a dark-silicon power budget (DsPB) ledger: a thermally
// safe chip power limit with reserve/release accounting, used by the runtime
// manager to admit applications.
type Budget struct {
	limit Watts
	used  Watts
}

// NewBudget returns a ledger with the given limit in watts. It panics for a
// non-positive limit, which is static misconfiguration.
func NewBudget(limit Watts) *Budget {
	if limit <= 0 {
		panic(fmt.Sprintf("power: non-positive DsPB limit %g", float64(limit)))
	}
	return &Budget{limit: limit}
}

// Used returns the currently reserved power in watts.
func (b *Budget) Used() Watts { return b.used }

// Available returns the remaining headroom in watts.
func (b *Budget) Available() Watts { return b.limit - b.used }

// Reserve attempts to reserve w watts, returning false (and reserving
// nothing) if the budget would be exceeded. Negative reservations are
// rejected.
func (b *Budget) Reserve(w Watts) bool {
	if w < 0 || b.used+w > b.limit+1e-12 {
		return false
	}
	b.used += w
	return true
}

// Release returns w watts to the budget. Releasing more than is reserved
// clamps the ledger at zero; the caller's accounting bug should not drive
// the ledger negative and mask later over-subscription.
func (b *Budget) Release(w Watts) {
	b.used -= w
	if b.used < 0 {
		b.used = 0
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
