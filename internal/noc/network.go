package noc

import (
	"fmt"
	"math"
	"math/bits"

	"parm/internal/geom"
)

// Config parameterizes the NoC simulation.
type Config struct {
	// Width and Height are the mesh dimensions. Zero selects 10x6.
	Width, Height int
}

// The router and NIC parameters are fixed platform constants (DESIGN.md
// §5): every recorded experiment runs with these values.
const (
	// bufferFlits is the input buffer capacity per port, in flits. Ring
	// indices wrap by masking with bufferFlits-1, so it is a power of two.
	bufferFlits = 8
	// FlitsPerPacket is the packet size: a head and four payload flits.
	FlitsPerPacket = 5
	// stagedPackets bounds the per-flow source queue; when full, demand is
	// counted as stalled cycles instead of growing without bound.
	stagedPackets = 4
	// occupancyThreshold is PANR's buffer-occupancy threshold B, as a
	// fraction (paper §5.1: 50 %).
	occupancyThreshold = 0.5
	// rateEWMA is the smoothing constant of the incoming-data-rate
	// estimator, the value every recorded experiment was calibrated
	// against.
	rateEWMA = 0.05
	// satLinkLoad is the per-link offered load (flits per cycle, injection
	// and ejection ports included) above which AnalyticMeasure declares the
	// network congested and callers must fall back to cycle simulation
	// (DESIGN.md §11 derives the value).
	satLinkLoad = 0.6
)

// Ring indices wrap by masking: a bufferFlits that is not a power of two
// makes this constant negative, which a uint cannot hold.
const _ uint = -(bufferFlits & (bufferFlits - 1))

func (c Config) withDefaults() Config {
	// Each dimension defaults independently, so a config that sets only one
	// (e.g. Width: 8) gets a real mesh instead of a degenerate zero-tile one.
	if c.Width == 0 {
		c.Width = 10
	}
	if c.Height == 0 {
		c.Height = 6
	}
	return c
}

// Validate returns the error NewNetwork and Reset report for a mesh out of
// range, or nil. Zero dimensions take their defaults first.
func (c Config) Validate() error { return c.withDefaults().validate() }

// validate rejects meshes the simulator cannot run. It checks the config
// after withDefaults, so zero fields already hold their defaults.
func (c Config) validate() error {
	switch {
	case c.Width <= 0 || c.Height <= 0:
		return fmt.Errorf("noc: non-positive mesh dimensions %dx%d", c.Width, c.Height)
	case c.Width > math.MaxInt32/c.Height:
		// Packets carry tile indices as int32.
		return fmt.Errorf("noc: mesh %dx%d exceeds %d tiles", c.Width, c.Height, math.MaxInt32)
	case bufferFlits > (maxPackets/(c.Width*c.Height)-1)/geom.NumPorts:
		// In flight, a packet holds a buffer slot or is mid-injection at its
		// source tile, and flit handles address at most maxPackets packets.
		return fmt.Errorf("noc: %dx%d mesh of %d-flit buffers exceeds %d packets in flight", c.Width, c.Height, bufferFlits, maxPackets)
	}
	return nil
}

// Env is the cross-layer state adaptive routing reads: the latest quantized
// PSN sensor reading per tile (paper Algorithm 3 input). A nil or short
// slice reads as zero noise.
type Env struct {
	PSN []float64
}

// psnAt returns the sensor reading for tile t, or 0 when unavailable.
func (e *Env) psnAt(t geom.TileID) float64 {
	if e == nil || int(t) >= len(e.PSN) || t < 0 {
		return 0
	}
	return e.PSN[t]
}

// Network is one NoC simulation instance. Reset reinitialises it for a new
// window, reusing its storage, so a caller that measures many windows keeps
// one Network.
type Network struct {
	mesh    geom.Mesh
	alg     Algorithm
	env     *Env
	routers []router
	flows   []Flow
	// stats counts each flow's traffic since Reset or the start of the last
	// Measure.
	stats []FlowStats

	// slots holds every input ring's flit handles, bufferFlits per (tile,
	// port) in tile-major order (ringBase); routers keep only each ring's
	// front index and count.
	slots []flit

	// per-flow injection state. acc[i] is the fractional flit credit
	// accumulated from Rate, replayed ahead of the clock up to the cycle
	// before the next wakeup (scheduleWake).
	acc    []float64
	staged []int // whole packets waiting at the source NIC
	// partialPkt[t] is the packet-table slot of the packet mid-injection at
	// tile t (-1 when none) and partialLeft[t] its flits still to inject,
	// so packets enter the local port contiguously.
	partialPkt  []int32
	partialLeft []int
	injectRR    []int // round-robin position in each tile's srcFlows run
	// srcFlows lists the flows each tile sources, ascending, tile after
	// tile; tile t's run is srcFlows[srcOff[t]:srcOff[t+1]].
	srcFlows []int
	srcOff   []int

	// packets is the packet table flit handles point into; free lists its
	// released slots.
	packets []packet
	free    []int32

	// active-set stepping state: which routers hold flits, which tiles have
	// staged or mid-packet injection work, and when each dormant flow next
	// needs demand accrual.
	activeRouters tileSet
	activeTiles   tileSet
	stagedFlows   []int // per tile, count of flows with staged > 0
	wake          wakeCalendar

	// The incoming-rate estimator adaptive routing reads: recv[t] counts the
	// flits written into tile t's input buffers this cycle, and rate[t] is
	// their exponentially weighted moving average, folded for every tile at
	// the end of each cycle (foldRates). The counts are held as
	// float64, exact for counts this small, so the fold converts nothing.
	recv []float64
	rate []float64

	// coord[t] is tile t's mesh coordinate and nbr[t][p] the tile one hop
	// from t through cardinal port p, or -1 off the mesh. Reset builds both
	// once per mesh size, so routing and traversal never divide by the
	// mesh width.
	coord []geom.Coord
	nbr   [][4]int32

	// per-cycle scratch, reused to avoid allocation in the hot loop
	arrivalScratch []pendingArrival

	cycle int
}

// NewNetwork builds a network for the given routing algorithm, flow set,
// and environment: a zero Network after Reset, which lists the errors.
func NewNetwork(cfg Config, alg Algorithm, flows []Flow, env *Env) (*Network, error) {
	n := &Network{}
	if err := n.Reset(cfg, alg, flows, env); err != nil {
		return nil, err
	}
	return n, nil
}

// Reset reinitialises n exactly as NewNetwork would build it for the given
// routing algorithm, flow set and environment, reusing n's storage: a warm
// network of the same mesh allocates nothing.
// The network keeps flows and env, so callers must not change them while it
// runs.
//
// It returns an error, and leaves n unchanged, for a mesh out of range
// (non-positive dimensions, more than MaxInt32 tiles, or too many tiles for
// the packet table to address every buffered flit), a nil algorithm, more
// than MaxInt32 flows, or a flow that references a tile outside the mesh or
// has a negative, NaN or infinite rate.
func (n *Network) Reset(cfg Config, alg Algorithm, flows []Flow, env *Env) error {
	cfg = cfg.withDefaults()
	mesh, err := checkInputs(cfg, alg, flows)
	if err != nil {
		return err
	}
	tiles := mesh.NumTiles()
	n.setMesh(mesh)
	n.alg, n.flows, n.env = alg, flows, env
	n.cycle = 0

	n.routers = resized(n.routers, tiles)
	for i := range n.routers {
		n.routers[i] = idleRouter()
	}
	n.slots = resized(n.slots, tiles*geom.NumPorts*bufferFlits)

	n.stats = resized(n.stats, len(flows))
	n.acc = resized(n.acc, len(flows))
	n.staged = resized(n.staged, len(flows))
	n.partialPkt = resized(n.partialPkt, tiles)
	for i := range n.partialPkt {
		n.partialPkt[i] = -1
	}
	n.partialLeft = resized(n.partialLeft, tiles)
	n.injectRR = resized(n.injectRR, tiles)
	n.stagedFlows = resized(n.stagedFlows, tiles)
	n.activeRouters.reset(tiles)
	n.activeTiles.reset(tiles)
	n.packets = n.packets[:0]
	n.free = n.free[:0]
	n.recv = resized(n.recv, tiles)
	n.rate = resized(n.rate, tiles)
	n.wake.reset(len(flows))
	// Sized to its steady-state bound so the cycle loop never grows it: at
	// most one arrival per (tile, port) per cycle.
	n.arrivalScratch = emptied(n.arrivalScratch, tiles*geom.NumPorts)

	// Counting sort of the flows by source tile, stable in flow order:
	// count each tile's flows into srcOff[t+1], turn the counts into run
	// starts, place each flow at its tile's cursor, then shift the cursors
	// (now run ends) back to starts.
	n.srcOff = resized(n.srcOff, tiles+1)
	for _, f := range flows {
		if f.Src != f.Dst {
			n.srcOff[f.Src+1]++
		}
	}
	for t := 1; t <= tiles; t++ {
		n.srcOff[t] += n.srcOff[t-1]
	}
	n.srcFlows = resized(n.srcFlows, n.srcOff[tiles])
	for i, f := range flows {
		if f.Src != f.Dst {
			n.srcFlows[n.srcOff[f.Src]] = i
			n.srcOff[f.Src]++
		}
	}
	copy(n.srcOff[1:], n.srcOff[:tiles])
	n.srcOff[0] = 0

	for i, f := range flows {
		if f.Src != f.Dst {
			n.scheduleWake(i, -1)
		}
	}
	return nil
}

// checkInputs returns the mesh of cfg (defaults applied), or the error Reset
// reports for cfg, alg and flows.
func checkInputs(cfg Config, alg Algorithm, flows []Flow) (geom.Mesh, error) {
	if alg == nil {
		return geom.Mesh{}, fmt.Errorf("noc: nil routing algorithm")
	}
	if err := cfg.validate(); err != nil {
		return geom.Mesh{}, err
	}
	if int64(len(flows)) > math.MaxInt32 {
		return geom.Mesh{}, fmt.Errorf("noc: %d flows exceed %d", len(flows), math.MaxInt32)
	}
	mesh := geom.NewMesh(cfg.Width, cfg.Height)
	for i, f := range flows {
		if !mesh.ValidTile(f.Src) || !mesh.ValidTile(f.Dst) {
			return geom.Mesh{}, fmt.Errorf("noc: flow %d endpoints (%d,%d) outside mesh", i, f.Src, f.Dst)
		}
		if f.Rate < 0 || math.IsNaN(f.Rate) || math.IsInf(f.Rate, 0) {
			return geom.Mesh{}, fmt.Errorf("noc: flow %d has invalid rate %g", i, f.Rate)
		}
	}
	return mesh, nil
}

// setMesh builds the coordinate and neighbour tables of mesh, unless n
// already holds them.
func (n *Network) setMesh(mesh geom.Mesh) {
	if mesh == n.mesh {
		return
	}
	tiles := mesh.NumTiles()
	n.mesh = mesh
	n.coord = resized(n.coord, tiles)
	n.nbr = resized(n.nbr, tiles)
	for i := range n.nbr {
		n.coord[i] = mesh.CoordOf(geom.TileID(i))
		for p := range n.nbr[i] {
			n.nbr[i][p] = -1
			if next, ok := mesh.Neighbor(geom.TileID(i), indexDir[p]); ok {
				n.nbr[i][p] = int32(next)
			}
		}
	}
}

// newRouteView returns the network an Algorithm reads when routing on an
// idle fabric: the mesh tables, zero incoming rates, and env. It holds no
// routers or flows and is never stepped.
func newRouteView(mesh geom.Mesh, env *Env) *Network {
	n := &Network{env: env}
	n.setMesh(mesh)
	n.rate = make([]float64, mesh.NumTiles())
	return n
}

// resized returns s with length size and every element zero, reusing its
// storage when the capacity allows.
func resized[S ~[]E, E any](s S, size int) S {
	if cap(s) < size {
		return make(S, size)
	}
	s = s[:size]
	clear(s)
	return s
}

// emptied returns s with length zero and capacity at least c, reusing its
// storage when the capacity allows.
func emptied[S ~[]E, E any](s S, c int) S {
	if cap(s) < c {
		return make(S, 0, c)
	}
	return s[:0]
}

// IncomingRate returns the incoming flit rate of tile t's router: the
// exponentially weighted moving average (smoothing constant 0.05) of the
// flits written into its input buffers per cycle, over every cycle the
// network has run. A route computed during a cycle reads the rate folded
// at the end of the cycle before.
func (n *Network) IncomingRate(t geom.TileID) float64 { return n.rate[t] }

// SensorPSN returns the environment's PSN reading at tile t.
func (n *Network) SensorPSN(t geom.TileID) float64 { return n.env.psnAt(t) }

// Step advances the simulation by one cycle. It visits only tiles with
// injection work and routers holding flits, in ascending tile order; the
// skipped tiles are exactly those for which a full sweep of every tile
// would do nothing (the test reference simulator is that sweep).
func (n *Network) Step() {
	n.processWakeups()
	// Injection sweep over tiles with staged packets or a mid-packet worm.
	for wi, w := range n.activeTiles.words {
		base := wi << 6
		for w != 0 {
			n.injectAtTile(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	// Route compute and switch traversal, router by router, over routers
	// holding flits. The sweep must be in ascending tile order: a downstream
	// pop earlier in the sweep frees a credit an upstream router sees the
	// same cycle.
	arrivals := n.arrivalScratch[:0]
	for wi, w := range n.activeRouters.words {
		base := wi << 6
		for w != 0 {
			arrivals = n.stepRouter(base+bits.TrailingZeros64(w), arrivals)
			w &= w - 1
		}
	}
	n.applyArrivals(arrivals)
	n.arrivalScratch = arrivals[:0]
	n.foldRates()
	n.cycle++
}

// Run advances the simulation by the given number of cycles.
func (n *Network) Run(cycles int) {
	for range cycles {
		n.Step()
	}
}

// processWakeups accrues the crossing cycle of every flow whose wakeup is
// due, then books the next one. scheduleWake has already replayed the
// flow's accrual up to the cycle before, so each wakeup stages or stalls a
// packet unless it was booked at the lookahead bound.
func (n *Network) processWakeups() {
	for f := n.wake.take(n.cycle); f >= 0; {
		// Read the link first: booking f's next wakeup overwrites it.
		next := n.wake.next[f]
		n.advanceAccrual(int(f))
		n.scheduleWake(int(f), n.cycle)
		f = next
	}
}

// advanceAccrual accrues one cycle of flow i's demand: one floating-point
// add, then a staging (or, with the stage queue full, a stall) for each
// FlitsPerPacket of credit. It runs only on crossing cycles, after
// scheduleWake replayed the same adds in the same order, so the float
// trajectory is bit for bit that of adding the rate every cycle.
func (n *Network) advanceAccrual(i int) {
	fpp := float64(FlitsPerPacket)
	n.acc[i] += n.flows[i].Rate
	for n.acc[i] >= fpp {
		// A stall drops the accrued packet's credit: the source is
		// backpressured and the demand is deferred.
		n.acc[i] -= fpp
		if n.staged[i] >= stagedPackets {
			n.stats[i].StalledCycles++
			break
		}
		n.incStaged(i)
	}
}

// wakeLookahead bounds how many cycles scheduleWake replays in one call, so
// a tiny rate (or one too small to move the accumulator at all) costs a
// bounded amount of work per wakeup, and how far ahead of the clock the
// wake calendar holds a wakeup.
const wakeLookahead = wakeBuckets - 1

// scheduleWake books flow i's next wakeup. acc[i] holds its accrual through
// cycle; the adds of the following cycles are replayed ahead of the clock
// while they stay below FlitsPerPacket, and the wakeup lands on the first
// cycle that would reach it, or at most wakeLookahead cycles on. Accrual
// below the threshold has no other effect, so running it early is exact.
func (n *Network) scheduleWake(i, cycle int) {
	rate := n.flows[i].Rate
	if rate <= 0 {
		return // never crosses
	}
	fpp := float64(FlitsPerPacket)
	acc := n.acc[i]
	for k := 1; k < wakeLookahead && acc+rate < fpp; k++ {
		acc += rate
		cycle++
	}
	n.acc[i] = acc
	n.wake.push(cycle+1, i)
}

// incStaged stages one packet of flow fi and keeps the per-tile staged-flow
// count and injection active set in sync.
func (n *Network) incStaged(fi int) {
	n.staged[fi]++
	if n.staged[fi] == 1 {
		src := int(n.flows[fi].Src)
		n.stagedFlows[src]++
		n.activeTiles.set(src)
	}
}

// decStaged consumes one staged packet of flow fi.
func (n *Network) decStaged(fi int) {
	n.staged[fi]--
	if n.staged[fi] == 0 {
		src := int(n.flows[fi].Src)
		n.stagedFlows[src]--
		if n.stagedFlows[src] == 0 {
			n.updateTileActivity(src)
		}
	}
}

// updateTileActivity recomputes tile t's membership in the injection active
// set: it has work while a packet is mid-injection or any of its flows has
// staged packets.
func (n *Network) updateTileActivity(t int) {
	if n.partialPkt[t] >= 0 || n.stagedFlows[t] > 0 {
		n.activeTiles.set(t)
	} else {
		n.activeTiles.clear(t)
	}
}

// injectAtTile moves at most one NIC flit into tile t's local input port.
func (n *Network) injectAtTile(t int) {
	r := &n.routers[t]
	if r.inputs[portLocal].len() >= bufferFlits {
		return
	}
	fi := n.pickInjection(t)
	if fi < 0 {
		return
	}
	n.push(t, portLocal, n.flitToInject(t, fi))
	r.occ |= 1 << portLocal
	n.activeRouters.set(t)
	n.recv[t]++
	n.stats[fi].InjectedFlits++
}

// pickInjection selects which flow injects at tile t this cycle: the
// in-progress packet if any, else round-robin over staged flows.
func (n *Network) pickInjection(t int) int {
	if slot := n.partialPkt[t]; slot >= 0 {
		return int(n.packets[slot].flow)
	}
	flows := n.srcFlows[n.srcOff[t]:n.srcOff[t+1]]
	i := n.injectRR[t]
	for range flows {
		fi := flows[i]
		if i++; i == len(flows) {
			i = 0
		}
		if n.staged[fi] > 0 {
			n.injectRR[t] = i
			return fi
		}
	}
	return -1
}

// flitToInject produces the next flit of flow fi's current packet at tile t
// and updates the partial-packet bookkeeping. A head opens the packet's
// table slot.
func (n *Network) flitToInject(t, fi int) flit {
	if n.partialPkt[t] < 0 {
		slot := n.openPacket(fi)
		n.decStaged(fi)
		n.partialPkt[t] = slot
		n.partialLeft[t] = FlitsPerPacket - 1
		n.activeTiles.set(t)
		return newFlit(slot, KindHead)
	}
	slot := n.partialPkt[t]
	n.partialLeft[t]--
	if n.partialLeft[t] > 0 {
		return newFlit(slot, KindBody)
	}
	n.partialPkt[t] = -1
	n.updateTileActivity(t)
	return newFlit(slot, KindTail)
}

// openPacket takes a packet-table slot for a new packet of flow fi injected
// this cycle.
func (n *Network) openPacket(fi int) int32 {
	pk := packet{born: n.cycle, flow: int32(fi), dst: int32(n.flows[fi].Dst)}
	if k := len(n.free) - 1; k >= 0 {
		slot := n.free[k]
		n.free = n.free[:k]
		n.packets[slot] = pk
		return slot
	}
	// Amortized zero-alloc: the table grows to the in-flight packet
	// high-water mark during warmup and is reused afterwards. The free list
	// (empty here) grows with it, so a later cycle that frees more slots
	// than ever before cannot make eject allocate.
	n.packets = append(n.packets, pk)
	if cap(n.free) < cap(n.packets) {
		n.free = make([]int32, 0, cap(n.packets))
	}
	return int32(len(n.packets) - 1)
}

// ringBase returns the index in n.slots of the first slot of input port p
// of router t.
func (n *Network) ringBase(t, p int) int { return (t*geom.NumPorts + p) * bufferFlits }

// tailSlot returns the index in n.slots just past the last flit of input
// port p of router t.
func (n *Network) tailSlot(t, p int) int {
	q := n.routers[t].inputs[p]
	return n.ringBase(t, p) + int(q.head+q.n)&(bufferFlits-1)
}

// push appends f to input port p of router t.
func (n *Network) push(t, p int, f flit) {
	n.slots[n.tailSlot(t, p)] = f
	n.routers[t].inputs[p].n++
}

// pop removes the front flit of input p of router r (tile t) as it crosses
// the switch.
func (n *Network) pop(r *router, t, p int) flit {
	q := &r.inputs[p]
	f := n.slots[n.ringBase(t, p)+int(q.head)]
	q.head = (q.head + 1) & (bufferFlits - 1)
	q.n--
	if q.n == 0 {
		r.occ &^= 1 << p
	}
	r.forwarded++
	return f
}

// stepRouter runs one cycle of router t: route computation for unrouted
// head flits at its input fronts, output arbitration, and switch traversal
// of at most one flit per output port, appending link crossings to
// arrivals. Route computation and arbitration walk their masks in ascending
// port order; traversal's order is immaterial, because each held channel
// pops its own input and writes its own downstream ring. When the router
// drains completely it leaves the active set.
//
// Fusing the three stages per router is exact against a sweep that routes
// every router before traversing any: traversal only pops the router's own
// inputs and writes past the tail of downstream rings, and route
// computation reads neither — it reads the router's own input fronts and
// occupancy, neighbour incoming rates (folded only at the end of the cycle)
// and sensor PSN.
func (n *Network) stepRouter(t int, arrivals []pendingArrival) []pendingArrival {
	r := &n.routers[t]
	// One pass over the occupied inputs whose worm holds no channel, whose
	// fronts are therefore heads, routes unrouted heads and builds, per
	// output port, the bitmask of inputs whose head requests it.
	var req [geom.NumPorts]uint8
	var requested uint8
	for m := r.occ &^ r.held; m != 0; m &= m - 1 {
		p := bits.TrailingZeros8(m)
		out := r.route[p]
		if out == portUnrouted {
			f := n.slots[n.ringBase(t, p)+int(r.inputs[p].head)]
			d := n.alg.Route(RouteCtx{
				Net:            n,
				At:             geom.TileID(t),
				Dst:            geom.TileID(n.packets[f.slot()].dst),
				InDir:          indexDir[p],
				InputOccupancy: r.occupancy(p),
			})
			out = portNone
			if port := dirIndex(d); port >= 0 {
				out = uint8(port)
			}
			r.route[p] = out
		}
		if out < geom.NumPorts {
			req[out] |= 1 << p
			requested |= 1 << out
		}
	}
	// Arbitration: a free output grants the first requester at or after
	// its round-robin pointer. Rotating the request mask right by the
	// pointer puts that input at the lowest set bit. Each input requests at
	// most one output, so grants never collide.
	for m := requested &^ r.owned; m != 0; m &= m - 1 {
		out := bits.TrailingZeros8(m)
		ptr := r.rrPtr[out]
		rot := (req[out]>>ptr | req[out]<<(geom.NumPorts-ptr)) & (1<<geom.NumPorts - 1)
		in := ptr + uint8(bits.TrailingZeros8(rot))
		if in >= geom.NumPorts {
			in -= geom.NumPorts
		}
		r.owned |= 1 << out
		r.held |= 1 << in
		r.rrPtr[out] = in + 1
		if r.rrPtr[out] == geom.NumPorts {
			r.rrPtr[out] = 0
		}
	}
	// Traversal: each occupied input holding a channel forwards its front
	// flit; the tail releases the channel.
	for m := r.occ & r.held; m != 0; m &= m - 1 {
		in := bits.TrailingZeros8(m)
		out := int(r.route[in])
		if out == portLocal {
			// Ejection: infinite sink.
			f := n.pop(r, t, in)
			n.eject(f)
			if f.isTail() {
				r.endWorm(in, out)
			}
			continue
		}
		next := n.nbr[t][out]
		if next < 0 {
			// Misrouting off-mesh cannot happen with a sane algorithm;
			// drop the channel to avoid wedging the port forever. The worm
			// keeps its route and requests the output again.
			r.release(in, out)
			continue
		}
		// Credit check. This output is the only writer of the downstream
		// input, so the count alone tells whether a slot is free; pops by
		// routers earlier in the sweep have already freed theirs.
		dstPort := int(oppositePort[out])
		q := &n.routers[next].inputs[dstPort]
		if q.n >= bufferFlits {
			continue
		}
		f := n.pop(r, t, in)
		// The handle lands just past the downstream tail. The count stays
		// put until applyArrivals, so routers later in the sweep do not see
		// the flit, and their pops move head and count together, keeping
		// this slot just past the tail.
		n.slots[n.ringBase(int(next), dstPort)+int(q.head+q.n)&(bufferFlits-1)] = f
		// Bounded by the scratch capacity Reset reserved: one
		// arrival per (tile, port) per cycle.
		arrivals = append(arrivals, pendingArrival{to: next, port: uint8(dstPort)})
		if f.isTail() {
			r.endWorm(in, out)
		}
	}
	if r.occ == 0 {
		n.activeRouters.clear(t)
	}
	return arrivals
}

// eject records delivery statistics for a flit leaving the network; the
// tail closes the packet and frees its table slot.
func (n *Network) eject(f flit) {
	slot := f.slot()
	pk := n.packets[slot]
	st := &n.stats[pk.flow]
	st.DeliveredFlits++
	if !f.isTail() {
		return
	}
	// Amortized zero-alloc: the free list never outgrows the table.
	n.free = append(n.free, slot)
	st.DeliveredPackets++
	st.TotalPacketLatency += n.cycle - pk.born + 1
}

// applyArrivals makes this cycle's link crossings visible: traversal wrote
// each handle into its downstream ring already, so only counts, masks, the
// active set and the receive counts change here.
func (n *Network) applyArrivals(arrivals []pendingArrival) {
	for _, a := range arrivals {
		r := &n.routers[a.to]
		r.inputs[a.port].n++
		r.occ |= 1 << a.port
		n.activeRouters.set(int(a.to))
		n.recv[a.to]++
	}
}

// ewmaStep is the incoming-rate update. The explicit conversions round
// each product before the add, so no architecture fuses the multiply-add
// and the rates are bit for bit the same everywhere.
func ewmaStep(rate, alpha, sample float64) float64 {
	return float64((1-alpha)*rate) + float64(alpha*sample)
}

// foldRates folds this cycle's receive counts into every tile's rate and
// clears them for the next cycle.
func (n *Network) foldRates() {
	rate := n.rate
	recv := n.recv[:len(rate)]
	for t, r := range rate {
		rate[t] = ewmaStep(r, rateEWMA, recv[t])
	}
	clear(recv)
}

// Result summarizes a measurement window.
type Result struct {
	// Cycles is the window length.
	Cycles int
	// Flows holds per-flow statistics, parallel to the input flow slice.
	Flows []FlowStats
	// RouterForwarded counts crossbar traversals per tile.
	RouterForwarded []int
	// RouterUtil is forwarded flits per cycle per port, in [0,1].
	RouterUtil []float64
}

// Measure runs the network for the given number of cycles from its current
// state and returns aggregate statistics. The flow statistics and router
// forwarding counts start from zero, so they count the window alone. A
// window of no cycles reports zero router utilization. The Result shares no
// storage with the network.
func (n *Network) Measure(cycles int) *Result {
	clear(n.stats)
	for i := range n.routers {
		n.routers[i].forwarded = 0
	}
	n.Run(cycles)
	res := &Result{
		Cycles:          cycles,
		Flows:           make([]FlowStats, len(n.stats)),
		RouterForwarded: make([]int, len(n.routers)),
		RouterUtil:      make([]float64, len(n.routers)),
	}
	copy(res.Flows, n.stats)
	for i := range n.routers {
		fw := n.routers[i].forwarded
		res.RouterForwarded[i] = fw
		if cycles > 0 {
			res.RouterUtil[i] = float64(fw) / float64(cycles) / float64(geom.NumPorts)
		}
	}
	return res
}
