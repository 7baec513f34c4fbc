// Package golden embeds the reference outputs parmbench checks its runs
// against. The files are generated by `go run ./parmbench -golden-out golden`
// from the bench directory; regenerating them is a benchmark-only change.
package golden

import _ "embed"

// CycleDigests holds, per cycle-mode workload and anchor seed, the SHA-256
// of core.Metrics.WriteJSON.
//
//go:embed cycle_digests.json
var CycleDigests []byte

// AutoReference holds, per anchor seed, the cycle-mode outputs that the
// NoCModeAuto workload's drift is measured against.
//
//go:embed auto_reference.json
var AutoReference []byte

// Fig67Cells holds the Fig 6 and Fig 7 table cells of the paper sweep as
// printed.
//
//go:embed fig67_cells.json
var Fig67Cells []byte
