// Package sched turns an application's task graph into an execution time on
// its mapped cores (SPMDMakespan), and holds the checkpoint/rollback
// constants of the fault-tolerance scheme the paper uses to recover from
// voltage emergencies (§4.2, §4.5, §5.1): the periodic checkpoint overhead
// that inflates every makespan, and the expected time a voltage emergency
// costs, which the engine charges per emergency.
package sched

import "parm/internal/appmodel"

// Checkpoint/rollback constants from paper §5.1.
const (
	// CheckpointPeriod is the interval between checkpoints in seconds.
	CheckpointPeriod = 1e-3
	// CheckpointCycles is the overhead of taking one checkpoint.
	CheckpointCycles = 256
	// RollbackCycles is the restart overhead after a voltage emergency.
	RollbackCycles = 10000
)

// CheckpointOverheadFrac returns the fractional execution-time overhead of
// periodic checkpointing at clock frequency f.
func CheckpointOverheadFrac(f float64) float64 {
	if f <= 0 {
		return 0
	}
	return CheckpointCycles / (CheckpointPeriod * f)
}

// RollbackPenalty returns the expected lost time per voltage emergency at
// clock frequency f: the restart overhead plus re-execution of half a
// checkpoint interval on average.
func RollbackPenalty(f float64) float64 {
	if f <= 0 {
		return 0
	}
	return RollbackCycles/f + CheckpointPeriod/2
}

// CommDelay returns the serialized transfer time in seconds of one APG
// edge, as measured by the NoC model for the edge's mapped flow. A nil
// CommDelay means zero-cost communication.
type CommDelay func(e appmodel.Edge) float64

// Config parameterizes one makespan computation.
type Config struct {
	// Freq is the core clock frequency in Hz (all of an application's
	// cores share one Vdd, hence one frequency).
	Freq float64
	// Delay supplies per-edge communication delays; nil means zero.
	Delay CommDelay
	// Checkpointing inflates compute times by the periodic checkpoint
	// overhead when true.
	Checkpointing bool
	// SyncCyclesPerTask adds per-task barrier overhead in cycles, matching
	// the profile model (appmodel.Benchmark.SyncCyclesPerTask).
	SyncCyclesPerTask float64
}
