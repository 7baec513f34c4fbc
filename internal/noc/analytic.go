package noc

import (
	"fmt"

	"parm/internal/geom"
)

// This file is the closed-form window model of DESIGN.md §11: when every
// network resource is offered less load than the saturation threshold, a
// measurement window's aggregate statistics are computed analytically from
// the flows' zero-load routes instead of simulated cycle by cycle.

// AnalyticReport describes how the closed-form model applied to a flow set.
type AnalyticReport struct {
	// MaxLoad is the highest offered load in flits/cycle on any network
	// resource: a crossbar output port (links and ejection) or a source
	// NIC's injection port.
	MaxLoad float64
	// Saturated reports that some resource's offered load exceeded the
	// configured SatLinkLoad threshold. The closed form is unreliable in
	// that regime — backpressure, stalls, and adaptive rerouting dominate —
	// so callers must fall back to cycle simulation.
	Saturated bool
}

// maxTraceHops bounds route tracing; every shipped algorithm is minimal so
// a trace longer than the mesh diameter indicates a routing bug.
func maxTraceHops(m geom.Mesh) int { return m.Width + m.Height + 2 }

// AnalyticMeasure computes the Result an uncongested measurement window of
// the given cycle count would produce, without running the cycle loop. It
// is a pure, deterministic function of (cfg, alg, flows, env).
//
// The model: each flow's route is traced through the real routing algorithm
// against an idle network (zero occupancy and incoming rates, the actual
// PSN environment), which is exact below saturation because every shipped
// algorithm routes minimally and reads only state that is quiescent at low
// load. Per-flow latency is the wormhole zero-load latency (hops +
// serialization) plus an M/D/1-style contention term per traversed output
// port; throughput is the offered load. The report's Saturated flag tells
// the caller when any resource exceeds cfg.SatLinkLoad and the closed form
// must not be used.
func AnalyticMeasure(cfg Config, alg Algorithm, flows []Flow, env *Env, cycles int) (*Result, AnalyticReport, error) {
	cfg = cfg.withDefaults()
	mesh, err := checkInputs(cfg, alg, flows)
	if err != nil {
		return nil, AnalyticReport{}, err
	}
	// The route view supplies RouteCtx's picture of an idle fabric: zero
	// occupancy and incoming rates, and the actual PSN environment.
	n := newRouteView(cfg, mesh, env)
	numTiles := mesh.NumTiles()
	lp := dirIndex(geom.Local)

	// Trace every flow's route once, accumulating offered load per crossbar
	// output port and per source NIC, and remembering the port sequence for
	// the latency pass.
	outLoad := make([]float64, numTiles*geom.NumPorts)
	injLoad := make([]float64, numTiles)
	ports := make([]int32, 0, len(flows)*8) // flattened per-flow port lists
	portOff := make([]int, len(flows)+1)
	tiles := make([]int32, 0, len(flows)*8) // flattened per-flow tile paths
	tileOff := make([]int, len(flows)+1)
	for i, f := range flows {
		portOff[i] = len(ports)
		tileOff[i] = len(tiles)
		if f.Src == f.Dst || f.Rate <= 0 {
			continue
		}
		at, inDir := f.Src, geom.Local
		tiles = append(tiles, int32(f.Src))
		for hop := 0; ; hop++ {
			if hop > maxTraceHops(mesh) {
				return nil, AnalyticReport{}, fmt.Errorf("noc: %s route %d->%d exceeds %d hops", alg.Name(), f.Src, f.Dst, maxTraceHops(mesh))
			}
			dir := alg.Route(RouteCtx{Net: n, At: at, Dst: f.Dst, InDir: inDir})
			if dir == geom.Local {
				break
			}
			port := int(at)*geom.NumPorts + dirIndex(dir)
			outLoad[port] += f.Rate
			ports = append(ports, int32(port))
			next, ok := mesh.Neighbor(at, dir)
			if !ok {
				return nil, AnalyticReport{}, fmt.Errorf("noc: %s routed %d->%d off-mesh at %d", alg.Name(), f.Src, f.Dst, at)
			}
			inDir = dir.Opposite()
			at = next
			tiles = append(tiles, int32(at))
		}
		eject := int(f.Dst)*geom.NumPorts + lp
		outLoad[eject] += f.Rate
		ports = append(ports, int32(eject))
		injLoad[f.Src] += f.Rate
	}
	portOff[len(flows)] = len(ports)
	tileOff[len(flows)] = len(tiles)

	var rep AnalyticReport
	for _, l := range outLoad {
		if l > rep.MaxLoad {
			rep.MaxLoad = l
		}
	}
	for _, l := range injLoad {
		if l > rep.MaxLoad {
			rep.MaxLoad = l
		}
	}
	rep.Saturated = rep.MaxLoad > cfg.SatLinkLoad

	// Closed-form window statistics. Throughput is the offered load (below
	// saturation the network delivers what is injected); latency is
	// zero-load serialization plus per-port contention. The M/D/1-style
	// waiting term rho*fpp/(2*(1-rho)) models a head flit finding the port
	// busy with a competing worm of fpp flits.
	fpp := cfg.FlitsPerPacket
	res := &Result{
		Cycles:          cycles,
		Flows:           make([]FlowStats, len(flows)),
		RouterForwarded: make([]int, numTiles),
		RouterUtil:      make([]float64, numTiles),
	}
	for i, f := range flows {
		if f.Src == f.Dst || f.Rate <= 0 {
			continue
		}
		// The NIC stages whole packets, so a window ships the offered flit
		// credit rounded down to packet granularity (the in-flight remainder
		// rides across window boundaries in either direction).
		packets := int(f.Rate*float64(cycles)) / fpp
		flits := packets * fpp
		hops := tileOff[i+1] - tileOff[i] - 1
		wait := waitInject(injLoad[f.Src], f.Rate, fpp)
		for _, p := range ports[portOff[i]:portOff[i+1]] {
			wait += waitMD1(outLoad[p], fpp)
		}
		lat := float64(hops+fpp) + wait
		res.Flows[i] = FlowStats{
			InjectedFlits:      flits,
			DeliveredFlits:     flits,
			DeliveredPackets:   packets,
			TotalPacketLatency: int(lat*float64(packets) + 0.5),
		}
		for _, t := range tiles[tileOff[i]:tileOff[i+1]] {
			res.RouterForwarded[t] += flits
		}
	}
	for t := range res.RouterForwarded {
		res.RouterUtil[t] = float64(res.RouterForwarded[t]) / float64(cycles) / float64(geom.NumPorts)
	}
	return res, rep, nil
}

// waitMD1 is the M/D/1-style waiting term for a port offered rho flits/cycle
// by worms of fpp flits. rho is clamped at 0.95: above SatLinkLoad the model
// is out of its validity range anyway (NoCModeAuto falls back to cycle
// simulation there), and the clamp keeps AnalyticMeasure's answer for a
// saturated window finite and monotone instead of diverging as rho -> 1.
func waitMD1(rho float64, fpp int) float64 {
	if rho <= 0 {
		return 0
	}
	if rho > 0.95 {
		rho = 0.95
	}
	return rho * float64(fpp) / (2 * (1 - rho))
}

// waitInject is the source-NIC serialization wait: flows sharing one
// injection port queue behind each other's worms. Own load is excluded — a
// flow never queues behind itself at its own NIC.
func waitInject(total, own float64, fpp int) float64 {
	return waitMD1(total-own, fpp)
}
