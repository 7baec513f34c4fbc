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
// rings sit next to the rest of its 104 bytes of state, and Reset rebuilds
// no per-buffer slice header.
type ring struct {
	head, n int32
}

func (q ring) len() int { return int(q.n) }

// router is one 5-port input-buffered wormhole router.
type router struct {
	// inputs[p] is the ring of flits waiting at input port p.
	inputs [geom.NumPorts]ring
	// route[p] is the output port computed for the head at input p's front:
	// portUnrouted until its route is computed (and for body and tail
	// flits), portNone when the algorithm named no port. Every pop resets it.
	route [geom.NumPorts]uint8
	// occ has bit p set while input p holds a flit, owned has bit p set
	// while output p's wormhole channel is held; a router with occ == 0 has
	// no routing or switching work this cycle.
	occ, owned uint8
	// owner[p] is the input port that holds the wormhole channel to output
	// port p (meaningful while owned has bit p set).
	owner [geom.NumPorts]uint8
	// rrPtr[p] is the round-robin arbitration pointer of output port p: the
	// input that wins a tie next.
	rrPtr [geom.NumPorts]uint8

	// forwarded counts flits that traversed the crossbar (all outputs).
	forwarded int
	// recvCycle/recvCount sample flits written into any input buffer during
	// one cycle (noteReceive); recvCycle is -1 until the first receive.
	recvCycle int
	recvCount int
	// incomingRate is an exponentially weighted moving average of received
	// flits per cycle; adaptive routing reads it from neighbors. rateCycle
	// is the first cycle not yet folded into it — idle-cycle decay is
	// applied lazily (catchUpRate).
	incomingRate float64
	rateCycle    int
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

// idleRouter is a router as Reset leaves it: empty rings, no route computed,
// no channel held, and no receive sampled yet.
func idleRouter() router {
	r := router{recvCycle: -1}
	for p := range r.route {
		r.route[p] = portUnrouted
	}
	return r
}
