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
	// BufferFlits is the input buffer capacity per port. Zero selects 8.
	BufferFlits int
	// FlitsPerPacket is the packet size. Zero selects 5 (head + 4 payload).
	FlitsPerPacket int
	// StagedPackets bounds the per-flow source queue; when full, demand is
	// counted as stalled cycles instead of growing without bound. Zero
	// selects 4.
	StagedPackets int
	// OccupancyThreshold is PANR's buffer-occupancy threshold B as a
	// fraction; zero selects 0.5 (paper §5.1).
	OccupancyThreshold float64
	// RateEWMA is the smoothing constant of the incoming-data-rate
	// estimator in (0,1]; zero selects 0.05, the value every recorded
	// experiment was calibrated against (TestConfigDefaults pins doc and
	// code together).
	RateEWMA float64
	// SatLinkLoad is the per-link offered load (flits per cycle, injection
	// and ejection ports included) above which AnalyticMeasure declares the
	// network congested and callers must fall back to cycle simulation.
	// Zero selects 0.6 (DESIGN.md §11 derives the value).
	SatLinkLoad float64
}

func (c Config) withDefaults() Config {
	// Each dimension defaults independently, so a config that sets only one
	// (e.g. Width: 8) gets a real mesh instead of a degenerate zero-tile one.
	if c.Width == 0 {
		c.Width = 10
	}
	if c.Height == 0 {
		c.Height = 6
	}
	if c.BufferFlits == 0 {
		c.BufferFlits = 8
	}
	if c.FlitsPerPacket == 0 {
		c.FlitsPerPacket = 5
	}
	if c.StagedPackets == 0 {
		c.StagedPackets = 4
	}
	if c.OccupancyThreshold == 0 {
		c.OccupancyThreshold = 0.5
	}
	if c.RateEWMA == 0 {
		c.RateEWMA = 0.05
	}
	if c.SatLinkLoad == 0 {
		c.SatLinkLoad = 0.6
	}
	return c
}

// Validate returns the error NewNetwork and Reset report for a config
// field out of range, or nil. Zero fields take their defaults first.
func (c Config) Validate() error { return c.withDefaults().validate() }

// validate rejects configurations the simulator cannot run. It checks the
// config after withDefaults, so zero fields already hold their defaults.
func (c Config) validate() error {
	switch {
	case c.Width <= 0 || c.Height <= 0:
		return fmt.Errorf("noc: non-positive mesh dimensions %dx%d", c.Width, c.Height)
	case c.Width > math.MaxInt32/c.Height:
		// Packets carry tile indices as int32.
		return fmt.Errorf("noc: mesh %dx%d exceeds %d tiles", c.Width, c.Height, math.MaxInt32)
	case c.BufferFlits < 0:
		return fmt.Errorf("noc: negative BufferFlits %d", c.BufferFlits)
	case c.BufferFlits > (maxPackets/(c.Width*c.Height)-1)/geom.NumPorts:
		// In flight, a packet holds a buffer slot or is mid-injection at its
		// source tile, and flit handles address at most maxPackets packets.
		return fmt.Errorf("noc: %dx%d mesh of %d-flit buffers exceeds %d packets in flight", c.Width, c.Height, c.BufferFlits, maxPackets)
	case c.FlitsPerPacket < 0:
		return fmt.Errorf("noc: negative FlitsPerPacket %d", c.FlitsPerPacket)
	case c.StagedPackets < 0:
		return fmt.Errorf("noc: negative StagedPackets %d", c.StagedPackets)
	case !(c.RateEWMA > 0 && c.RateEWMA <= 1):
		return fmt.Errorf("noc: RateEWMA %g outside (0,1]", c.RateEWMA)
	case math.IsNaN(c.OccupancyThreshold) || c.OccupancyThreshold < 0:
		return fmt.Errorf("noc: invalid OccupancyThreshold %g", c.OccupancyThreshold)
	case math.IsNaN(c.SatLinkLoad) || c.SatLinkLoad < 0:
		return fmt.Errorf("noc: invalid SatLinkLoad %g", c.SatLinkLoad)
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
	cfg     Config
	mesh    geom.Mesh
	alg     Algorithm
	env     *Env
	routers []router
	flows   []Flow
	stats   []FlowStats

	// slots holds every input ring's flit handles, BufferFlits per (tile,
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
	wake          wakeHeap
	rated         []int // tiles that received flits this cycle (deduplicated)

	// coord[t] is tile t's mesh coordinate and nbr[t][p] the tile one hop
	// from t through cardinal port p, or -1 off the mesh. Reset builds both
	// once per mesh size, so routing and traversal never divide by the
	// mesh width.
	coord []geom.Coord
	nbr   [][4]int32

	// per-cycle scratch, reused to avoid allocation in the hot loop
	arrivalScratch []pendingArrival

	// Measure's start-of-window snapshots, kept so a window allocates only
	// the Result it returns.
	startForwarded []int
	startStats     []FlowStats

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
// It returns an error, and leaves n unchanged, for a config field out of
// range (non-positive mesh dimensions or more than MaxInt32 tiles, negative
// buffer, packet or stage sizes, RateEWMA outside (0,1], a NaN or negative
// threshold, buffers too large for the packet table), a nil algorithm, more
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
	n.cfg, n.alg, n.flows, n.env = cfg, alg, flows, env
	n.cycle = 0

	n.routers = resized(n.routers, tiles)
	for i := range n.routers {
		n.routers[i] = idleRouter()
	}
	n.slots = resized(n.slots, tiles*geom.NumPorts*cfg.BufferFlits)

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
	// Sized to their steady-state bounds so the cycle loop never grows
	// them: at most one arrival per (tile, port) per cycle, one rated entry
	// per tile per cycle, one live wakeup per flow.
	n.rated = emptied(n.rated, tiles)
	n.arrivalScratch = emptied(n.arrivalScratch, tiles*geom.NumPorts)
	n.wake = emptied(n.wake, len(flows))

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
// idle fabric: cfg (defaults applied) and its mesh tables, empty routers
// with zero incoming rates, and env. It holds no flows and is never
// stepped.
func newRouteView(cfg Config, mesh geom.Mesh, env *Env) *Network {
	n := &Network{cfg: cfg, env: env}
	n.setMesh(mesh)
	n.routers = make([]router, mesh.NumTiles())
	for i := range n.routers {
		n.routers[i] = idleRouter()
	}
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

// IncomingRate returns the EWMA incoming flit rate of tile t's router,
// folding any pending idle-cycle decay first (see catchUpRate).
func (n *Network) IncomingRate(t geom.TileID) float64 {
	r := &n.routers[t]
	n.catchUpRate(r, n.cycle-1)
	return r.incomingRate
}

// SensorPSN returns the environment's PSN reading at tile t.
func (n *Network) SensorPSN(t geom.TileID) float64 { return n.env.psnAt(t) }

// Step advances the simulation by one cycle. It visits only tiles with
// injection work and routers holding flits, in ascending tile order; the
// skipped tiles are exactly those for which a full sweep of every tile
// would do nothing (the test reference simulator is that sweep).
//
//parm:hot
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

// Run advances the simulation by the given number of cycles. Stretches
// where no router holds a flit and no tile has injection work are skipped
// in one jump to the next flow wakeup: no per-cycle state changes in
// between (rate decay and demand accrual are lazy, credits are clear
// between cycles), so the jump is exact.
func (n *Network) Run(cycles int) {
	end := n.cycle + cycles
	for n.cycle < end {
		if n.activeRouters.empty() && n.activeTiles.empty() {
			next := end
			if len(n.wake) > 0 && n.wake[0].cycle < next {
				next = n.wake[0].cycle
			}
			if next > n.cycle {
				n.cycle = next
				continue
			}
		}
		n.Step()
	}
}

// processWakeups accrues the crossing cycle of every flow whose wakeup is
// due, then books the next one. scheduleWake has already replayed the
// flow's accrual up to the cycle before, so each wakeup stages or stalls a
// packet unless it was booked at the lookahead bound.
//
//parm:hot
func (n *Network) processWakeups() {
	for len(n.wake) > 0 && n.wake[0].cycle <= n.cycle {
		w := n.wake.pop()
		n.advanceAccrual(w.flow)
		n.scheduleWake(w.flow, n.cycle)
	}
}

// advanceAccrual accrues one cycle of flow i's demand: one floating-point
// add, then a staging (or, with the stage queue full, a stall) for each
// FlitsPerPacket of credit. It runs only on crossing cycles, after
// scheduleWake replayed the same adds in the same order, so the float
// trajectory is bit for bit that of adding the rate every cycle.
//
//parm:hot
func (n *Network) advanceAccrual(i int) {
	fpp := float64(n.cfg.FlitsPerPacket)
	n.acc[i] += n.flows[i].Rate
	for n.acc[i] >= fpp {
		// A stall drops the accrued packet's credit: the source is
		// backpressured and the demand is deferred.
		n.acc[i] -= fpp
		if n.staged[i] >= n.cfg.StagedPackets {
			n.stats[i].StalledCycles++
			break
		}
		n.incStaged(i)
	}
}

// wakeLookahead bounds how many cycles scheduleWake replays in one call, so
// a tiny rate (or one too small to move the accumulator at all) costs a
// bounded amount of work per wakeup.
const wakeLookahead = 1 << 12

// scheduleWake books flow i's next wakeup. acc[i] holds its accrual through
// cycle; the adds of the following cycles are replayed ahead of the clock
// while they stay below FlitsPerPacket, and the wakeup lands on the first
// cycle that would reach it, or at most wakeLookahead cycles on. Accrual
// below the threshold has no other effect, so running it early is exact.
//
//parm:hot
func (n *Network) scheduleWake(i, cycle int) {
	rate := n.flows[i].Rate
	if rate <= 0 {
		return // never crosses
	}
	fpp := float64(n.cfg.FlitsPerPacket)
	acc := n.acc[i]
	for k := 1; k < wakeLookahead && acc+rate < fpp; k++ {
		acc += rate
		cycle++
	}
	n.acc[i] = acc
	n.wake.push(flowWake{cycle: cycle + 1, flow: i})
}

// incStaged stages one packet of flow fi and keeps the per-tile staged-flow
// count and injection active set in sync.
//
//parm:hot
func (n *Network) incStaged(fi int) {
	n.staged[fi]++
	if n.staged[fi] == 1 {
		src := int(n.flows[fi].Src)
		n.stagedFlows[src]++
		n.activeTiles.set(src)
	}
}

// decStaged consumes one staged packet of flow fi.
//
//parm:hot
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
//
//parm:hot
func (n *Network) updateTileActivity(t int) {
	if n.partialPkt[t] >= 0 || n.stagedFlows[t] > 0 {
		n.activeTiles.set(t)
	} else {
		n.activeTiles.clear(t)
	}
}

// injectAtTile moves at most one NIC flit into tile t's local input port.
//
//parm:hot
func (n *Network) injectAtTile(t int) {
	r := &n.routers[t]
	if r.inputs[portLocal].len() >= n.cfg.BufferFlits {
		return
	}
	fi := n.pickInjection(t)
	if fi < 0 {
		return
	}
	n.push(t, portLocal, n.flitToInject(t, fi))
	r.occ |= 1 << portLocal
	n.activeRouters.set(t)
	n.noteReceive(r, t)
	n.stats[fi].InjectedFlits++
}

// pickInjection selects which flow injects at tile t this cycle: the
// in-progress packet if any, else round-robin over staged flows.
//
//parm:hot
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
//
//parm:hot
func (n *Network) flitToInject(t, fi int) flit {
	if n.partialPkt[t] < 0 {
		slot := n.openPacket(fi)
		n.decStaged(fi)
		if n.cfg.FlitsPerPacket == 1 {
			return newFlit(slot, KindHeadTail)
		}
		n.partialPkt[t] = slot
		n.partialLeft[t] = n.cfg.FlitsPerPacket - 1
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
//
//parm:hot
func (n *Network) openPacket(fi int) int32 {
	pk := packet{born: n.cycle, flow: int32(fi), dst: int32(n.flows[fi].Dst)}
	if k := len(n.free) - 1; k >= 0 {
		slot := n.free[k]
		n.free = n.free[:k]
		n.packets[slot] = pk
		return slot
	}
	// Amortized zero-alloc: the table grows to the in-flight packet
	// high-water mark during warmup and is reused afterwards.
	//parm:alloc
	n.packets = append(n.packets, pk)
	return int32(len(n.packets) - 1)
}

// ringBase returns the index in n.slots of the first slot of input port p
// of router t.
//
//parm:hot
func (n *Network) ringBase(t, p int) int { return (t*geom.NumPorts + p) * n.cfg.BufferFlits }

// tailSlot returns the index in n.slots just past the last flit of input
// port p of router t.
//
//parm:hot
func (n *Network) tailSlot(t, p int) int {
	q := n.routers[t].inputs[p]
	i := int(q.head + q.n)
	if i >= n.cfg.BufferFlits {
		i -= n.cfg.BufferFlits
	}
	return n.ringBase(t, p) + i
}

// push appends f to input port p of router t.
//
//parm:hot
func (n *Network) push(t, p int, f flit) {
	n.slots[n.tailSlot(t, p)] = f
	n.routers[t].inputs[p].n++
}

// pop removes the front flit of input p of router r (tile t) as it crosses
// the switch.
//
//parm:hot
func (n *Network) pop(r *router, t, p int) flit {
	q := &r.inputs[p]
	f := n.slots[n.ringBase(t, p)+int(q.head)]
	if q.head++; int(q.head) == n.cfg.BufferFlits {
		q.head = 0
	}
	q.n--
	if q.n == 0 {
		r.occ &^= 1 << p
	}
	r.route[p] = portUnrouted
	r.forwarded++
	return f
}

// stepRouter runs one cycle of router t: route computation for unrouted
// head flits at its input fronts, output arbitration, and switch traversal
// of at most one flit per output port, appending link crossings to
// arrivals. Each stage walks its port mask in ascending port order. When
// the router drains completely it leaves the active set.
//
// Fusing the three stages per router is exact against a sweep that routes
// every router before traversing any: traversal only pops the router's own
// inputs and writes past the tail of downstream rings, and route
// computation reads neither — it reads the router's own input fronts and
// occupancy, neighbour incoming rates (folded only at the end of the cycle)
// and sensor PSN.
//
//parm:hot
func (n *Network) stepRouter(t int, arrivals []pendingArrival) []pendingArrival {
	r := &n.routers[t]
	// One pass over the occupied inputs routes unrouted heads and builds,
	// per output port, the bitmask of inputs whose head requests it.
	var req [geom.NumPorts]uint8
	var requested uint8
	for m := r.occ; m != 0; m &= m - 1 {
		p := bits.TrailingZeros8(m)
		out := r.route[p]
		if out == portUnrouted {
			f := n.slots[n.ringBase(t, p)+int(r.inputs[p].head)]
			if !f.isHead() {
				continue // body and tail flits follow their worm's channel
			}
			d := n.alg.Route(RouteCtx{
				Net:            n,
				At:             geom.TileID(t),
				Dst:            geom.TileID(n.packets[f.slot()].dst),
				InDir:          indexDir[p],
				InputOccupancy: r.occupancy(p, n.cfg.BufferFlits),
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
		r.owner[out] = in
		r.owned |= 1 << out
		r.rrPtr[out] = in + 1
		if r.rrPtr[out] == geom.NumPorts {
			r.rrPtr[out] = 0
		}
	}
	// Traversal: each owned output forwards its input's front flit.
	for m := r.owned; m != 0; m &= m - 1 {
		out := bits.TrailingZeros8(m)
		in := int(r.owner[out])
		if r.occ&(1<<in) == 0 {
			continue
		}
		if out == portLocal {
			// Ejection: infinite sink.
			f := n.pop(r, t, in)
			n.eject(f)
			if f.isTail() {
				r.owned &^= 1 << out
			}
			continue
		}
		next := n.nbr[t][out]
		if next < 0 {
			// Misrouting off-mesh cannot happen with a sane algorithm;
			// drop the channel to avoid wedging the port forever.
			r.owned &^= 1 << out
			continue
		}
		// Credit check. This output is the only writer of the downstream
		// input, so the count alone tells whether a slot is free; pops by
		// routers earlier in the sweep have already freed theirs.
		dstPort := int(oppositePort[out])
		if n.routers[next].inputs[dstPort].len() >= n.cfg.BufferFlits {
			continue
		}
		f := n.pop(r, t, in)
		// The handle lands just past the downstream tail. The count stays
		// put until applyArrivals, so routers later in the sweep do not see
		// the flit, and their pops move head and count together, keeping
		// this slot just past the tail.
		n.slots[n.tailSlot(int(next), dstPort)] = f
		// Bounded by the scratch capacity Reset reserved: one
		// arrival per (tile, port) per cycle.
		//parm:alloc
		arrivals = append(arrivals, pendingArrival{to: next, port: uint8(dstPort)})
		if f.isTail() {
			r.owned &^= 1 << out
		}
	}
	if r.occ == 0 {
		n.activeRouters.clear(t)
	}
	return arrivals
}

// eject records delivery statistics for a flit leaving the network; the
// tail closes the packet and frees its table slot.
//
//parm:hot
func (n *Network) eject(f flit) {
	slot := f.slot()
	pk := n.packets[slot]
	st := &n.stats[pk.flow]
	st.DeliveredFlits++
	if !f.isTail() {
		return
	}
	// Amortized zero-alloc: the free list never outgrows the table.
	//parm:alloc
	n.free = append(n.free, slot)
	st.DeliveredPackets++
	st.TotalPacketLatency += n.cycle - pk.born + 1
}

// applyArrivals makes this cycle's link crossings visible: traversal wrote
// each handle into its downstream ring already, so only counts, masks and
// the active and rated sets change here.
//
//parm:hot
func (n *Network) applyArrivals(arrivals []pendingArrival) {
	for _, a := range arrivals {
		r := &n.routers[a.to]
		r.inputs[a.port].n++
		r.occ |= 1 << a.port
		n.activeRouters.set(int(a.to))
		n.noteReceive(r, int(a.to))
	}
}

// noteReceive counts a flit entering any of router r's input buffers this
// cycle and enrolls the tile in the per-cycle rated list (once).
//
//parm:hot
func (n *Network) noteReceive(r *router, t int) {
	if r.recvCycle != n.cycle {
		r.recvCycle = n.cycle
		r.recvCount = 0
		// Bounded by the rated capacity Reset reserved: one entry
		// per tile per cycle.
		//parm:alloc
		n.rated = append(n.rated, t)
	}
	r.recvCount++
}

// ewmaStep is the one incoming-rate update everybody shares. Keeping eager,
// lazy, and catch-up updates on this exact expression guarantees they round
// identically whether or not the compiler fuses the multiply-add.
//
//parm:hot
func ewmaStep(rate, alpha, sample float64) float64 {
	return (1-alpha)*rate + alpha*sample
}

// catchUpRate folds router r's pending idle-cycle rate decay through the
// given cycle. Every cycle with a receive is folded eagerly at its own end
// (foldRates), so all pending cycles here sampled zero flits; a zero rate
// then stays zero, which lets long-idle routers skip the replay outright.
//
//parm:hot
func (n *Network) catchUpRate(r *router, through int) {
	if r.rateCycle > through {
		return
	}
	// Exact shortcut, not a tolerance: ewmaStep(0, alpha, 0) == 0.
	//parm:floateq
	if r.incomingRate == 0 {
		r.rateCycle = through + 1
		return
	}
	alpha := n.cfg.RateEWMA
	rate := r.incomingRate
	for c := r.rateCycle; c <= through; c++ {
		next := ewmaStep(rate, alpha, 0)
		// Deep-subnormal rates reach a rounding fixed point where the decay
		// is exactly idempotent; the remaining replay is then a no-op. Exact
		// comparison, not a tolerance.
		//parm:floateq
		if next == rate {
			break
		}
		rate = next
	}
	r.incomingRate = rate
	r.rateCycle = through + 1
}

// foldRates advances the incoming-rate EWMA of every router that received
// flits this cycle (the rated list); routers that received nothing keep a
// pending decay that catchUpRate folds lazily on first read.
//
//parm:hot
func (n *Network) foldRates() {
	alpha := n.cfg.RateEWMA
	for _, t := range n.rated {
		r := &n.routers[t]
		n.catchUpRate(r, n.cycle-1)
		r.incomingRate = ewmaStep(r.incomingRate, alpha, float64(r.recvCount))
		r.rateCycle = n.cycle + 1
	}
	n.rated = n.rated[:0]
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
// state and returns aggregate statistics. A window of no cycles reports
// zero router utilization. The Result shares no storage with the network.
func (n *Network) Measure(cycles int) *Result {
	n.startForwarded = n.startForwarded[:0]
	for i := range n.routers {
		n.startForwarded = append(n.startForwarded, n.routers[i].forwarded)
	}
	n.startStats = append(n.startStats[:0], n.stats...)
	startForwarded, startStats := n.startForwarded, n.startStats

	n.Run(cycles)

	res := &Result{
		Cycles:          cycles,
		Flows:           make([]FlowStats, len(n.stats)),
		RouterForwarded: make([]int, len(n.routers)),
		RouterUtil:      make([]float64, len(n.routers)),
	}
	for i := range n.stats {
		res.Flows[i] = FlowStats{
			InjectedFlits:      n.stats[i].InjectedFlits - startStats[i].InjectedFlits,
			DeliveredFlits:     n.stats[i].DeliveredFlits - startStats[i].DeliveredFlits,
			DeliveredPackets:   n.stats[i].DeliveredPackets - startStats[i].DeliveredPackets,
			TotalPacketLatency: n.stats[i].TotalPacketLatency - startStats[i].TotalPacketLatency,
			StalledCycles:      n.stats[i].StalledCycles - startStats[i].StalledCycles,
		}
	}
	for i := range n.routers {
		fw := n.routers[i].forwarded - startForwarded[i]
		res.RouterForwarded[i] = fw
		if cycles > 0 {
			res.RouterUtil[i] = float64(fw) / float64(cycles) / float64(geom.NumPorts)
		}
	}
	return res
}
