package noc

import "testing"

// The anchors in this file are closed forms derived by hand from the cycle
// semantics of DESIGN.md §11, not recorded outputs. Within one cycle a tile
// stages the packets its accrual completes, injects one flit into its local
// input, and its router forwards that flit the same cycle; each link takes
// one cycle. A packet's head born at cycle c on an h-hop route with no
// contention therefore ejects at c+h and its tail at c+h+FlitsPerPacket-1,
// for a latency of h+FlitsPerPacket. A flow of rate r stages its first
// packet on the cycle its accrual reaches FlitsPerPacket, at cycle
// FlitsPerPacket/r - 1, and one more every FlitsPerPacket/r cycles.

// anchorWarmup and anchorWindow are multiples of the 20-cycle period of
// both anchors, so the window sees whole periods of the steady state.
const (
	anchorWarmup = 1500
	anchorWindow = 6000
)

// A lone rate-1.0 flow saturates its injection port and nothing else: it
// stages a packet at cycles 4, 9, 14, ..., injects a flit every cycle from
// cycle 4 on and, with no contention on its 9-hop row, ejects one every
// cycle from cycle 13 on. Packet k is born at 4+5k and its tail ejects at
// 17+5k, 14 cycles later. The window [1500, 7500) therefore delivers 6000
// flits and the 1200 packets k = 297..1496.
func TestExactLoneFlowAtLinkRate(t *testing.T) {
	for _, alg := range []Algorithm{XY{}, ICON{}, PANR{}} {
		n := mkNet(t, alg, []Flow{{Src: 0, Dst: 9, Rate: 1.0}}, &Env{PSN: make([]float64, 60)})
		n.Run(anchorWarmup)
		got := n.Measure(anchorWindow).Flows[0]
		want := FlowStats{
			InjectedFlits:      anchorWindow,
			DeliveredFlits:     anchorWindow,
			DeliveredPackets:   anchorWindow / FlitsPerPacket,
			TotalPacketLatency: anchorWindow / FlitsPerPacket * (9 + FlitsPerPacket),
		}
		if got != want {
			t.Errorf("%s: lone rate-1.0 flow = %+v, want %+v", alg.Name(), got, want)
		}
	}
}

// Two flows share tile 9's ejection port at a summed rate of 0.75 flits per
// cycle. A runs 9 hops east from tile 0 at rate 0.25: it stages at 19+20k,
// and its packets eject over cycles 28..32+20k, latency 14. B runs 1 hop
// south from tile 19 at rate 0.5: it stages at 9+10j. B's packets staged at
// 19+20k eject over 20..24+20k, latency 6, clear of A. Those staged at
// 29+20k reach tile 9 at 30+20k while A's worm holds the port until its tail
// leaves at 32+20k; they wait in tile 9's input buffer (at most 4 of its 8
// slots) and eject over 33..37+20k, latency 9. No source queue ever holds
// more than the one packet staged and injected the same cycle, so nothing
// stalls.
// Every 20 cycles A delivers 5 flits and B 10, so the window [1500, 7500)
// holds 300 periods: A delivers 1500 flits in 300 packets of latency 14, B
// 3000 flits in 300 packets of latency 6 and 300 of latency 9.
func TestExactSharedEjectionPort(t *testing.T) {
	flows := []Flow{{Src: 0, Dst: 9, Rate: 0.25}, {Src: 19, Dst: 9, Rate: 0.5}}
	want := []FlowStats{
		{InjectedFlits: 1500, DeliveredFlits: 1500, DeliveredPackets: 300, TotalPacketLatency: 300 * 14},
		{InjectedFlits: 3000, DeliveredFlits: 3000, DeliveredPackets: 600, TotalPacketLatency: 300*6 + 300*9},
	}
	for _, alg := range []Algorithm{XY{}, ICON{}, PANR{}} {
		n := mkNet(t, alg, flows, &Env{PSN: make([]float64, 60)})
		n.Run(anchorWarmup)
		res := n.Measure(anchorWindow)
		for i := range flows {
			if res.Flows[i] != want[i] {
				t.Errorf("%s: flow %d = %+v, want %+v", alg.Name(), i, res.Flows[i], want[i])
			}
		}
	}
}
