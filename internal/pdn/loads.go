package pdn

import "math"

// VEThreshold is the PSN fraction beyond which a voltage emergency occurs
// at near-threshold voltages (paper §3.4, 5% as in ref [12]).
const VEThreshold = 0.05

// Class is a tile's switching-activity class. The paper bins application
// tasks into High and Low switching activity from offline profiling (§3.5).
type Class int

// Switching-activity classes. Idle marks an unoccupied tile.
const (
	Idle Class = iota
	Low
	High
)

// String returns "idle", "low" or "high".
func (c Class) String() string {
	switch c {
	case Low:
		return "low"
	case High:
		return "high"
	default:
		return "idle"
	}
}

// Core switching-activity factors per class, used for tile power and
// current. High-activity (compute-bound) tasks keep the core pipeline busy;
// low-activity (stall-bound) tasks mostly wait on memory or
// synchronization.
const (
	HighCoreActivity = 0.90
	LowCoreActivity  = 0.35
)

// ActivityFactor returns the core activity factor of class c (0 for Idle).
func ActivityFactor(c Class) float64 {
	switch c {
	case High:
		return HighCoreActivity
	case Low:
		return LowCoreActivity
	default:
		return 0
	}
}

// Burst frequencies per activity class. High-activity (compute-bound) tasks
// burst near the package LC resonance; low-activity (stall-heavy) tasks
// burst slower. The incommensurate frequencies make cross-class waveforms
// beat and periodically align — the High-Low interference of Fig. 3(b).
const (
	HighBurstHz = 125e6
	LowBurstHz  = 75e6
)

// Modulation depth per class: the fraction of average current that swings
// with workload bursts.
const (
	HighModulation = 0.90
	LowModulation  = 0.35
)

// TileOccupant describes what is running on one tile slot of a domain, the
// input to BuildLoads.
type TileOccupant struct {
	// IAvg is the tile's average supply current in amperes (0 if idle).
	IAvg float64
	// Class is the switching-activity class of the occupying task.
	Class Class
	// Staggered marks the task as phase-controllable by the runtime:
	// same-class threads of one barrier-synchronized application can be
	// activated staggered (paper ref [11]). Threads that are not staggered
	// burst at phase 0 (worst-case aligned).
	Staggered bool
}

// BuildLoads converts the four tile occupants of a domain into PDN current
// loads, applying the phase-staggering policy: within each activity class,
// staggered tasks get evenly spaced phases (cancelling their common-mode
// swing at the shared bump), while non-staggered tasks stay aligned.
// Cross-class pairs always interfere because their burst frequencies differ.
// Every occupant's Class is Idle, Low or High.
func BuildLoads(occ [DomainTiles]TileOccupant) [DomainTiles]TileLoad {
	var loads [DomainTiles]TileLoad
	// Count staggered members per class to spread phases evenly; idx counts
	// the phases handed out so far.
	var counts, idx [High + 1]int
	for _, o := range occ {
		if o.Class != Idle && o.Staggered {
			counts[o.Class]++
		}
	}
	for i, o := range occ {
		if o.Class == Idle || o.IAvg <= 0 {
			continue
		}
		ld := TileLoad{IAvg: o.IAvg}
		switch o.Class {
		case High:
			ld.Activity = HighModulation
			ld.BurstHz = HighBurstHz
		case Low:
			ld.Activity = LowModulation
			ld.BurstHz = LowBurstHz
		}
		if o.Staggered && counts[o.Class] > 1 {
			ld.Phase = 2 * math.Pi * float64(idx[o.Class]) / float64(counts[o.Class])
			idx[o.Class]++
		}
		loads[i] = ld
	}
	return loads
}
