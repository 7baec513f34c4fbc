package sched

import (
	"fmt"

	"parm/internal/appmodel"
)

// SPMDMakespan computes the execution time of a multithreaded SPMD
// application whose threads run concurrently on dedicated cores (paper
// §3.2: each thread executes on a dedicated core; APG edges are
// communication volumes between threads, not precedence).
//
// Each thread's time is its compute time (work + barrier overhead, inflated
// by checkpointing) plus its share of the serialized transfer time of every
// edge it terminates: communication partially overlaps computation, and
// each endpoint bears half of a transfer's cost (the sender streams while
// the receiver consumes). The makespan is the slowest thread.
func SPMDMakespan(g *appmodel.APG, cfg Config) (float64, error) {
	if cfg.Freq <= 0 {
		return 0, fmt.Errorf("sched: non-positive frequency %g", cfg.Freq)
	}
	if err := g.Validate(); err != nil {
		return 0, err
	}
	over := 1 + CheckpointOverheadFrac(cfg.Freq)
	n := g.NumTasks()
	t := make([]float64, n)
	for i, task := range g.Tasks {
		t[i] = (task.WorkCycles + cfg.SyncCyclesPerTask) / cfg.Freq * over
	}
	for _, e := range g.Edges {
		d := 0.0
		if cfg.Delay != nil {
			d = cfg.Delay(e)
		}
		if d < 0 {
			d = 0
		}
		t[e.Src] += d / 2
		t[e.Dst] += d / 2
	}
	m := 0.0
	for _, v := range t {
		if v > m {
			m = v
		}
	}
	return m, nil
}
