package expr

import (
	"parm/internal/appmodel"
	"parm/internal/pdn"
	"parm/internal/power"
	"parm/internal/report"
)

// DarkSiliconTable quantifies the platform's dark-silicon constraint
// (paper §1-§3): how many of the 60 tiles can be lit at each supply
// voltage under the 65 W budget. At nominal voltage roughly half the chip
// must stay dark; near threshold everything fits — the headroom PARM
// spends on extra parallelism.
func DarkSiliconTable() *report.Table {
	p := power.MustParams(power.Node7)
	t := report.NewTable("Dark silicon at 7nm: tiles lit under the 65 W budget",
		"vdd(V)", "f(GHz)", "tilePower(W)", "litTiles(of 60)", "darkFraction(%)")
	for _, v := range p.VddLevels() {
		tp := p.TilePower(v, pdn.HighCoreActivity, 0.4)
		lit := int(65 / tp)
		if lit > 60 {
			lit = 60
		}
		t.AddRow(v, p.Frequency(v)/1e9, tp, lit, float64(60-lit)/60*100)
	}
	return t
}

// BenchmarkProfileTable dumps the offline profile data the runtime
// consumes (paper §5.1's workload characterization): per benchmark, the
// class, WCET at two reference operating points, the DoP-32 power at NTC,
// and the total communication volume.
func BenchmarkProfileTable() *report.Table {
	p := power.MustParams(power.Node7)
	t := report.NewTable("Benchmark profiles (7nm)",
		"benchmark", "class", "wcet(0.4V,32)ms", "wcet(0.8V,16)ms", "power(0.4V,32)W", "commTotal(MB)", "highTasks(32)")
	for _, b := range appmodel.Benchmarks() {
		g := b.Graph(32)
		high := 0
		for _, task := range g.Tasks {
			if task.Activity == pdn.High {
				high++
			}
		}
		t.AddRow(
			b.Name,
			b.Kind.String(),
			b.WCETEstimate(p, 0.4, 32)*1e3,
			b.WCETEstimate(p, 0.8, 16)*1e3,
			b.PowerEstimate(p, 0.4, 32),
			b.CommMBTotal,
			high,
		)
	}
	return t
}
