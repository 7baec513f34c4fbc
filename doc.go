// Package parm is a simulation framework reproducing "PARM: Power Supply
// Noise Aware Resource Management for NoC based Multicore Systems in the
// Dark Silicon Era" (Raparti & Pasricha, DAC 2018).
//
// The library models a 60-core 7nm FinFET chip multiprocessor with 2x2-tile
// power-supply domains, a cycle-level wormhole network-on-chip, an RLC
// power-delivery-network transient solver, and the PARM runtime resource
// manager: joint supply-voltage / degree-of-parallelism selection
// (Algorithm 1), PSN-aware task clustering and mapping (Algorithm 2), and
// PSN- and congestion-aware NoC routing (PANR, Algorithm 3), evaluated
// against the harmonic-mapping (HM), XY, and ICON baselines.
//
// Entry points:
//
//   - cmd/parmsim runs one workload under a chosen framework;
//   - cmd/experiments regenerates every figure of the paper's evaluation;
//   - example_test.go is a checked quickstart: one PARM mapping;
//   - bench_test.go holds the per-figure benchmark harness.
//
// See DESIGN.md for the system inventory and per-experiment index, and
// EXPERIMENTS.md for recorded paper-vs-measured results.
package parm

// Version identifies this reproduction release.
const Version = "1.0.0"
