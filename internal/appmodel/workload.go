package appmodel

import (
	"fmt"
	"math"
	"math/rand"

	"parm/internal/power"
)

// WorkloadKind selects which benchmark pool a workload sequence draws from
// (paper §5.1: compute-intensive, communication-intensive, and mixed
// sequences of up to 20 applications).
type WorkloadKind int

// Workload kinds.
const (
	WorkloadCompute WorkloadKind = iota
	WorkloadComm
	WorkloadMixed
)

// String returns the sequence name used in the paper's figures.
func (k WorkloadKind) String() string {
	switch k {
	case WorkloadCompute:
		return "compute-intensive"
	case WorkloadComm:
		return "communication-intensive"
	default:
		return "mixed"
	}
}

// WorkloadKinds lists the three sequence types of the evaluation.
var WorkloadKinds = []WorkloadKind{WorkloadCompute, WorkloadComm, WorkloadMixed}

// WorkloadConfig parameterizes workload sequence generation.
type WorkloadConfig struct {
	// Kind selects the benchmark pool.
	Kind WorkloadKind
	// NumApps is the sequence length (paper: up to 20).
	NumApps int
	// ArrivalGap is the inter-application arrival gap in seconds
	// (paper: 0.2, 0.1, or 0.05 s).
	ArrivalGap float64
	// Node provides the frequency model used to size deadlines.
	Node power.NodeParams
	// DeadlineSlack scales deadlines relative to the reference WCET.
	// Zero selects the default of 1.45.
	DeadlineSlack float64
	// Seed makes the sequence reproducible.
	Seed int64
	// Rand, when non-nil, supplies the random stream instead of Seed. The
	// caller owns its synchronization; Generate consumes it single-threaded.
	// Passing rand.New(rand.NewSource(s)) is equivalent to Seed: s.
	Rand *rand.Rand
}

// Workload is a deterministic sequence of application arrivals.
type Workload struct {
	Kind WorkloadKind
	Apps []*App
}

// Generate builds a workload sequence: NumApps applications drawn uniformly
// from the configured pool, arriving every ArrivalGap seconds (with ±20%
// jitter), each with a deadline of DeadlineSlack times its reference WCET
// (the profiled time at mid Vdd and DoP 16, with per-app jitter). It
// returns an error for a non-positive app count or a non-positive or
// non-finite arrival gap.
func Generate(cfg WorkloadConfig) (*Workload, error) {
	if cfg.NumApps <= 0 {
		return nil, fmt.Errorf("appmodel: non-positive NumApps %d", cfg.NumApps)
	}
	if !(cfg.ArrivalGap > 0) || math.IsInf(cfg.ArrivalGap, 1) {
		return nil, fmt.Errorf("appmodel: ArrivalGap %g is not a positive finite number", cfg.ArrivalGap)
	}
	slack := cfg.DeadlineSlack
	if slack <= 0 {
		slack = 0.95
	}
	rng := cfg.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(cfg.Seed))
	}

	var pool []Benchmark
	switch cfg.Kind {
	case WorkloadCompute:
		pool = BenchmarksOfKind(ComputeIntensive)
	case WorkloadComm:
		pool = BenchmarksOfKind(CommIntensive)
	case WorkloadMixed:
		pool = Benchmarks()
	default:
		return nil, fmt.Errorf("appmodel: unknown workload kind %d", cfg.Kind)
	}

	// Deadline reference point: the profiled time at DoP 16 and an upper-
	// mid voltage. Deadlines this tight force a fixed-DoP manager toward
	// nominal Vdd, while a manager that widens parallelism can meet them
	// near threshold — the trade-off PARM exploits (paper §3.5).
	refVdd := cfg.Node.VNTC + 0.75*(cfg.Node.VNominal-cfg.Node.VNTC)

	w := &Workload{Kind: cfg.Kind, Apps: make([]*App, 0, cfg.NumApps)}
	t := 0.0
	for i := 0; i < cfg.NumApps; i++ {
		b := pool[rng.Intn(len(pool))]
		ref := b.WCETEstimate(cfg.Node, refVdd, 16)
		jitter := 0.93 + 0.14*rng.Float64()
		app := &App{
			ID:          i,
			Bench:       b,
			Arrival:     t,
			RelDeadline: slack * ref * jitter,
		}
		w.Apps = append(w.Apps, app)
		t += cfg.ArrivalGap * (0.8 + 0.4*rng.Float64())
	}
	return w, nil
}
