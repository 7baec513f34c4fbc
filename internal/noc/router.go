package noc

import "parm/internal/geom"

// Port indices. The four cardinal ports come first, so a port below
// portLocal also indexes the per-network neighbour table.
const (
	portEast = iota
	portWest
	portNorth
	portSouth
	portLocal
)

// Values of router.route beyond the real port indices.
const (
	// portNone marks a head whose route named no port (geom.DirInvalid or
	// an unknown direction): it requests no output and is never granted.
	portNone = geom.NumPorts
	// portUnrouted marks an input whose front flit has no output assigned.
	portUnrouted = 0xFF
)

// indexDir maps a port index to its direction; dirPort is the inverse.
var indexDir = [geom.NumPorts]geom.Dir{geom.East, geom.West, geom.North, geom.South, geom.Local}

var dirPort = [...]int8{
	geom.DirInvalid: -1,
	geom.East:       portEast,
	geom.West:       portWest,
	geom.North:      portNorth,
	geom.South:      portSouth,
	geom.Local:      portLocal,
}

// dirIndex returns the port index of direction d, or -1 when d names no
// port.
func dirIndex(d geom.Dir) int {
	if d < 0 || int(d) >= len(dirPort) {
		return -1
	}
	return int(dirPort[d])
}

// oppositePort[p] is the input port through which a flit leaving on
// cardinal output p enters the neighbouring router.
var oppositePort = [4]uint8{portWest, portEast, portSouth, portNorth}

// ring is one input buffer: a fixed-capacity ring of flit handles whose
// bufferFlits slots live in the network's slot array (Network.ringBase). The
// router keeps only the ring's front index and flit count, so its five
// rings sit next to the rest of its 64 bytes of state, and Reset rebuilds
// no per-buffer slice header.
type ring struct {
	head, n int32
}

func (q ring) len() int { return int(q.n) }

// router is one 5-port input-buffered wormhole router.
type router struct {
	// inputs[p] is the ring of flits waiting at input port p.
	inputs [geom.NumPorts]ring
	// route[p] is the output port of the worm at input p's front:
	// portUnrouted until its head's route is computed, portNone when the
	// algorithm named no port. It holds until the worm's tail leaves.
	route [geom.NumPorts]uint8
	// occ has bit p set while input p holds a flit; owned has bit p set
	// while output p's wormhole channel is held, and held has bit p set
	// while input p's worm holds the channel to output route[p]. A router
	// with occ == 0 has no routing or switching work this cycle.
	occ, owned, held uint8
	// rrPtr[p] is the round-robin arbitration pointer of output port p: the
	// input that wins a tie next.
	rrPtr [geom.NumPorts]uint8

	// forwarded counts flits that traversed the crossbar (all outputs)
	// since the network was reset or its last Measure began.
	forwarded int
}

// release frees the channel input in holds to output out.
func (r *router) release(in, out int) {
	r.owned &^= 1 << out
	r.held &^= 1 << in
}

// endWorm releases input in's channel to output out as its worm's tail
// leaves, and readies the input to route the next head.
func (r *router) endWorm(in, out int) {
	r.release(in, out)
	r.route[in] = portUnrouted
}

// occupancy returns the fill fraction of input port p's buffer.
func (r *router) occupancy(p int) float64 {
	return float64(r.inputs[p].len()) / bufferFlits
}

// pendingArrival is a link crossing this cycle into input port of router
// to. Traversal has already written the handle just past that ring's tail;
// applyArrivals bumps the count after all routers have been stepped, so a
// flit moves at most one hop per cycle.
type pendingArrival struct {
	to   int32
	port uint8
}

// idleRouter is a router as Reset leaves it: empty rings, no route computed
// and no channel held.
func idleRouter() router {
	var r router
	for p := range r.route {
		r.route[p] = portUnrouted
	}
	return r
}
