package sched

import (
	"testing"

	"parm/internal/appmodel"
)

// BenchmarkSPMDMakespan times the SPMD execution-time model used per
// mapping decision in the runtime engine.
func BenchmarkSPMDMakespan(b *testing.B) {
	g := appmodel.Benchmarks()[0].Graph(32)
	cfg := Config{Freq: 2e9, SyncCyclesPerTask: 1e5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SPMDMakespan(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
