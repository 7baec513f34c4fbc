package noc

import (
	"math/rand"

	"parm/internal/geom"
)

// refSim is a deliberately naive simulator of the wormhole mesh, written
// from DESIGN.md §11's description of a cycle, and the reference the
// production loop (Network.Step, Run and Measure) is checked against bit
// for bit. It shares no cycle-loop code with the production loop: every
// cycle it accrues every flow, offers injection at every tile and sweeps
// every router; flits are structs in per-port slices; every router's
// incoming rate is folded at the end of every cycle, as the production loop
// folds them too, but by its own code. The routing algorithm reads a route
// view (newRouteView) whose rates the reference overwrites with its own
// before each sweep.
type refSim struct {
	mesh    geom.Mesh
	alg     Algorithm
	flows   []Flow
	view    *Network
	routers []refRouter
	cycle   int

	acc    []float64 // fractional flit credit per flow
	staged []int     // whole packets waiting at each flow's source
	stats  []FlowStats

	sources [][]int        // flows each tile sources, ascending
	injRR   []int          // round-robin position in sources[t]
	inj     []refInjection // packet mid-injection per tile
}

// refPorts lists a router's ports in arbitration order: the four cardinal
// directions, then the local port that injects and ejects.
var refPorts = [5]geom.Dir{geom.East, geom.West, geom.North, geom.South, geom.Local}

const (
	refLocal    = 4
	refUnrouted = -1 // a head whose route has not been computed
	refNoPort   = -2 // a head the algorithm routed to no port
)

// refPortOf returns the port index of direction d, or refNoPort.
func refPortOf(d geom.Dir) int {
	for p, pd := range refPorts {
		if pd == d {
			return p
		}
	}
	return refNoPort
}

// refFlit is one flit in a buffer.
type refFlit struct {
	flow       int
	born       int // cycle the packet's head was injected
	head, tail bool
	// route is the output a head computed when it reached the front of its
	// input: refUnrouted until then.
	route int
}

type refRouter struct {
	in        [5][]refFlit
	owner     [5]int // input holding output p's wormhole channel, -1 when free
	rr        [5]int // round-robin pointer of output p: the input that wins a tie next
	forwarded int
	recv      int // flits written into any input this cycle
	rate      float64
}

// refInjection is the packet a tile is injecting: left flits still to go.
type refInjection struct {
	flow, born, left int
}

// refArrival is a flit crossing a link this cycle; it becomes visible at
// the downstream input after every router has been swept.
type refArrival struct {
	to, port int
	f        refFlit
}

func newRefSim(cfg Config, alg Algorithm, flows []Flow, env *Env) *refSim {
	cfg = cfg.withDefaults()
	mesh := geom.NewMesh(cfg.Width, cfg.Height)
	tiles := mesh.NumTiles()
	s := &refSim{
		mesh:    mesh,
		alg:     alg,
		flows:   flows,
		view:    newRouteView(mesh, env),
		routers: make([]refRouter, tiles),
		acc:     make([]float64, len(flows)),
		staged:  make([]int, len(flows)),
		stats:   make([]FlowStats, len(flows)),
		sources: make([][]int, tiles),
		injRR:   make([]int, tiles),
		inj:     make([]refInjection, tiles),
	}
	for t := range s.routers {
		for p := range s.routers[t].owner {
			s.routers[t].owner[p] = -1
		}
	}
	for i, f := range flows {
		if f.Src != f.Dst {
			s.sources[f.Src] = append(s.sources[f.Src], i)
		}
	}
	return s
}

// step runs one cycle: demand accrual, injection, the ascending router
// sweep (route computation, arbitration, traversal), link arrivals, and the
// incoming-rate fold.
func (s *refSim) step() {
	fpp := float64(FlitsPerPacket)
	for i, f := range s.flows {
		if f.Src == f.Dst {
			continue // local communication bypasses the NoC
		}
		s.acc[i] += f.Rate
		for s.acc[i] >= fpp {
			s.acc[i] -= fpp
			if s.staged[i] >= stagedPackets {
				s.stats[i].StalledCycles++
				break
			}
			s.staged[i]++
		}
	}
	for t := range s.routers {
		s.inject(t)
	}
	for t := range s.routers {
		s.view.rate[t] = s.routers[t].rate
	}
	var arrivals []refArrival
	for t := range s.routers {
		arrivals = s.sweep(t, arrivals)
	}
	for _, a := range arrivals {
		r := &s.routers[a.to]
		r.in[a.port] = append(r.in[a.port], a.f)
		r.recv++
	}
	alpha := rateEWMA
	for t := range s.routers {
		r := &s.routers[t]
		r.rate = (1-alpha)*r.rate + alpha*float64(r.recv)
		r.recv = 0
	}
	s.cycle++
}

// inject moves at most one flit into tile t's local input: the next flit of
// the packet in progress, else the head of a packet from the first flow
// with a staged packet at or after the round-robin position.
func (s *refSim) inject(t int) {
	r := &s.routers[t]
	if len(r.in[refLocal]) >= bufferFlits {
		return
	}
	w := &s.inj[t]
	var f refFlit
	if w.left > 0 {
		w.left--
		f = refFlit{flow: w.flow, born: w.born, tail: w.left == 0, route: refUnrouted}
	} else {
		src := s.sources[t]
		fi := -1
		for k := range src {
			if c := src[(s.injRR[t]+k)%len(src)]; s.staged[c] > 0 {
				fi = c
				s.injRR[t] = (s.injRR[t] + k + 1) % len(src)
				break
			}
		}
		if fi < 0 {
			return
		}
		s.staged[fi]--
		*w = refInjection{flow: fi, born: s.cycle, left: FlitsPerPacket - 1}
		f = refFlit{flow: fi, born: s.cycle, head: true, route: refUnrouted}
	}
	r.in[refLocal] = append(r.in[refLocal], f)
	r.recv++
	s.stats[f.flow].InjectedFlits++
}

// sweep runs one cycle of router t and appends its link crossings.
func (s *refSim) sweep(t int, arrivals []refArrival) []refArrival {
	r := &s.routers[t]
	// Route computation: a head at an input front asks the algorithm once,
	// then requests that output until it is granted and leaves.
	var wants [5]int
	for p := range r.in {
		wants[p] = refNoPort
		if len(r.in[p]) == 0 || !r.in[p][0].head {
			continue
		}
		f := &r.in[p][0]
		if f.route == refUnrouted {
			f.route = refPortOf(s.alg.Route(RouteCtx{
				Net:            s.view,
				At:             geom.TileID(t),
				Dst:            s.flows[f.flow].Dst,
				InDir:          refPorts[p],
				InputOccupancy: float64(len(r.in[p])) / bufferFlits,
			}))
		}
		wants[p] = f.route
	}
	// Arbitration: a free output grants the first requesting input at or
	// after its round-robin pointer, then points just past the winner.
	for out := range r.owner {
		if r.owner[out] >= 0 {
			continue
		}
		for k := 0; k < len(refPorts); k++ {
			in := (r.rr[out] + k) % len(refPorts)
			if wants[in] == out {
				r.owner[out] = in
				r.rr[out] = (in + 1) % len(refPorts)
				break
			}
		}
	}
	// Traversal: each held output forwards one flit of its worm if the
	// downstream input has a free slot now; the tail releases the channel.
	for out, in := range r.owner {
		if in < 0 || len(r.in[in]) == 0 {
			continue
		}
		if out == refLocal {
			f := r.pop(in)
			s.eject(f)
			if f.tail {
				r.owner[out] = -1
			}
			continue
		}
		next, ok := s.mesh.Neighbor(geom.TileID(t), refPorts[out])
		if !ok {
			r.owner[out] = -1 // off the mesh: drop the channel, keep the flit
			continue
		}
		port := refPortOf(refPorts[out].Opposite())
		if len(s.routers[next].in[port]) >= bufferFlits {
			continue
		}
		f := r.pop(in)
		arrivals = append(arrivals, refArrival{to: int(next), port: port, f: f})
		if f.tail {
			r.owner[out] = -1
		}
	}
	return arrivals
}

// pop removes the front flit of input in as it crosses the switch; its
// route was this router's decision and does not travel with it.
func (r *refRouter) pop(in int) refFlit {
	f := r.in[in][0]
	r.in[in] = r.in[in][1:]
	r.forwarded++
	f.route = refUnrouted
	return f
}

// eject delivers a flit at its destination; the tail completes the packet.
func (s *refSim) eject(f refFlit) {
	st := &s.stats[f.flow]
	st.DeliveredFlits++
	if f.tail {
		st.DeliveredPackets++
		st.TotalPacketLatency += s.cycle - f.born + 1
	}
}

func (s *refSim) run(cycles int) {
	for c := 0; c < cycles; c++ {
		s.step()
	}
}

// measure runs a window and reports what it delivered, as Network.Measure
// does.
func (s *refSim) measure(cycles int) *Result {
	startStats := append([]FlowStats(nil), s.stats...)
	startForwarded := make([]int, len(s.routers))
	for t := range s.routers {
		startForwarded[t] = s.routers[t].forwarded
	}
	s.run(cycles)
	res := &Result{
		Cycles:          cycles,
		Flows:           make([]FlowStats, len(s.stats)),
		RouterForwarded: make([]int, len(s.routers)),
		RouterUtil:      make([]float64, len(s.routers)),
	}
	for i, st := range s.stats {
		was := startStats[i]
		res.Flows[i] = FlowStats{
			InjectedFlits:      st.InjectedFlits - was.InjectedFlits,
			DeliveredFlits:     st.DeliveredFlits - was.DeliveredFlits,
			DeliveredPackets:   st.DeliveredPackets - was.DeliveredPackets,
			TotalPacketLatency: st.TotalPacketLatency - was.TotalPacketLatency,
			StalledCycles:      st.StalledCycles - was.StalledCycles,
		}
	}
	for t := range s.routers {
		fw := s.routers[t].forwarded - startForwarded[t]
		res.RouterForwarded[t] = fw
		if cycles > 0 {
			res.RouterUtil[t] = float64(fw) / float64(cycles) / float64(len(refPorts))
		}
	}
	return res
}

// rates returns every router's incoming-rate estimate.
func (s *refSim) rates() []float64 {
	out := make([]float64, len(s.routers))
	for t := range s.routers {
		out[t] = s.routers[t].rate
	}
	return out
}

// randomFlows returns n flows between uniformly drawn tiles of a mesh of
// the given size (a flow may be local) with rates uniform in [lo, hi).
func randomFlows(rng *rand.Rand, tiles, n int, lo, hi float64) []Flow {
	flows := make([]Flow, n)
	for i := range flows {
		flows[i] = Flow{
			App:  i,
			Src:  geom.TileID(rng.Intn(tiles)),
			Dst:  geom.TileID(rng.Intn(tiles)),
			Rate: lo + (hi-lo)*rng.Float64(),
		}
	}
	return flows
}
