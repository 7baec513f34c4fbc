// Package noc is a cycle-level simulator of the 2D-mesh wormhole
// network-on-chip that connects the CMP tiles (paper §3.1), together with
// the three routing schemes evaluated in §5.2: deterministic XY, ICON
// (NoC-activity-aware, core-agnostic, modeling ref [22]), and the paper's
// PANR (PSN- and congestion-aware, Algorithm 3). ICON and PANR choose among
// the directions the west-first turn model permits.
//
// Routers are input-buffered with credit-based flow control and single-VC
// wormhole switching: a head flit acquires an output port, body flits
// follow, and the tail flit releases it. Each output port forwards at most
// one flit per cycle and links take one cycle. Traffic is injected by
// flows — mapped APG edges — at configured demand rates; the simulator
// measures per-flow latency and throughput and per-router switching
// activity, which feed the execution-time model and the PDN solver.
package noc

import "parm/internal/geom"

// FlitKind distinguishes the positions of a flit inside a packet.
type FlitKind uint8

// Flit kinds. Every packet is FlitsPerPacket flits: a head, body flits and
// a tail.
const (
	KindHead FlitKind = iota
	KindBody
	KindTail
)

// flit is one flow-control unit in flight: a 4-byte handle packing the
// packet's slot in the network's packet table with the flit's kind
// (slot<<2 | kind). Buffers and links move handles; per-packet state lives
// once in the table.
type flit uint32

func newFlit(slot int32, k FlitKind) flit { return flit(uint32(slot)<<2 | uint32(k)) }

func (f flit) slot() int32    { return int32(f >> 2) }
func (f flit) kind() FlitKind { return FlitKind(f & 3) }

// isHead reports whether f opens its packet.
func (f flit) isHead() bool { return f.kind() == KindHead }

// isTail reports whether f closes its packet.
func (f flit) isTail() bool { return f.kind() == KindTail }

// maxPackets bounds the packet table: slots must fit the handle's 30 bits.
const maxPackets = 1 << 30

// packet is the state a packet's flits share. The head takes a table slot
// at injection and the tail frees it at ejection.
type packet struct {
	born int   // cycle the head was injected
	flow int32 // index into the simulation's flow table
	dst  int32 // destination tile
}

// Flow is one traffic stream: the mapped image of an APG edge. Src and Dst
// are tiles; Rate is the demand in flits per cycle (may exceed 1 only in
// aggregate across flows; a single flow is capped at 1 flit/cycle by the
// injection port).
type Flow struct {
	// App is the owning application ID (used to aggregate app latency).
	App int
	// Src and Dst are the mapped source and destination tiles.
	Src, Dst geom.TileID
	// Rate is the injection demand in flits per cycle.
	Rate float64
}

// FlowStats reports what one flow achieved during a measurement window.
type FlowStats struct {
	// InjectedFlits and DeliveredFlits count flits entering the source
	// router and leaving at the destination.
	InjectedFlits  int
	DeliveredFlits int
	// DeliveredPackets counts fully ejected packets.
	DeliveredPackets int
	// TotalPacketLatency sums, over delivered packets, the cycles from
	// head injection to tail ejection.
	TotalPacketLatency int
	// StalledCycles counts cycles injection was blocked by backpressure.
	StalledCycles int
}

// AvgPacketLatency returns the mean packet latency in cycles, or 0 when
// nothing was delivered.
func (s FlowStats) AvgPacketLatency() float64 {
	if s.DeliveredPackets == 0 {
		return 0
	}
	return float64(s.TotalPacketLatency) / float64(s.DeliveredPackets)
}
