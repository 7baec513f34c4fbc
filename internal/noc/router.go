package noc

import "parm/internal/geom"

// noOwner marks an output port with no wormhole channel allocated.
const noOwner = -1

// Port indices. The four cardinal ports come first, so a port below
// portLocal also indexes the per-network neighbour table.
const (
	portEast = iota
	portWest
	portNorth
	portSouth
	portLocal
)

// Values of flit.out beyond the real port indices.
const (
	// portNone marks a head whose route named no port (geom.DirInvalid or
	// an unknown direction): it requests no output and is never granted.
	portNone = geom.NumPorts
	// portUnrouted marks a flit with no output assigned yet.
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

// fifo is one input buffer: a fixed-capacity ring of flits. A ring keeps the
// hot loop allocation-free — the slice-and-append FIFO it replaces leaked
// front capacity on every pop and forced a reallocation per packet.
type fifo struct {
	buf  []flit
	head int
	n    int
}

func (q *fifo) len() int { return q.n }

func (q *fifo) push(f flit) {
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = f
	q.n++
}

func (q *fifo) pop() flit {
	f := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return f
}

// router is one 5-port input-buffered wormhole router.
type router struct {
	// inputs[p] is the FIFO of flits waiting at input port p.
	inputs [geom.NumPorts]fifo
	// buffered is the total flit count across all input ports; a router
	// with buffered == 0 has no routing or switching work this cycle.
	buffered int
	// owner[p] is the input port that holds the wormhole channel to output
	// port p, or noOwner.
	owner [geom.NumPorts]int8
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
	// applied lazily (catchUpRate), eagerly under SteppingDense.
	incomingRate float64
	rateCycle    int
}

// occupancy returns the fill fraction of input port p's buffer.
func (r *router) occupancy(p int, capacity int) float64 {
	if capacity <= 0 {
		return 0
	}
	return float64(r.inputs[p].len()) / float64(capacity)
}

// pendingArrival records a flit crossing a link this cycle, applied after
// all routers have been stepped so a flit moves at most one hop per cycle.
type pendingArrival struct {
	f    flit
	to   int32
	port uint8
}
