package core

import (
	"testing"

	"parm/internal/appmodel"
	"parm/internal/noc"
)

// BenchmarkEngineWindows times the exact NoC loop on the traffic the engine
// measures: the 38 windows of a seed-42, 20-app PARM+PANR mixed run in cycle
// mode under soft deadlines (parmbench's fig6_mixed_cycle), replayed with
// the engine's warmup and window lengths on one network reset per window.
// One op replays every window; ns/cycle divides by the cycles simulated.
func BenchmarkEngineWindows(b *testing.B) {
	w := genWorkload(b, appmodel.WorkloadMixed, 20, 0.05, 42)
	windows := collectCycleWindows(b, Config{SoftDeadlines: true}, MustCombo("PARM", "PANR"), w)
	n := new(noc.Network)
	env := new(noc.Env)
	b.ResetTimer()
	for range b.N {
		for _, cw := range windows {
			env.PSN = cw.psn
			if err := n.Reset(noc.Config{}, cw.routing, cw.flows, env); err != nil {
				b.Fatal(err)
			}
			n.Run(warmupCycles)
			n.Measure(windowCycles)
		}
	}
	cycles := b.N * len(windows) * (warmupCycles + windowCycles)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
}
