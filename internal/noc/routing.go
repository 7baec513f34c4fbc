package noc

import "parm/internal/geom"

// RouteCtx is the per-head-flit routing context handed to an Algorithm.
type RouteCtx struct {
	// Net gives access to neighbor state (incoming data rates, PSN sensor
	// readings) — the registers and wires of paper §4.4.
	Net *Network
	// At is the current router's tile; Dst the destination tile.
	At, Dst geom.TileID
	// InDir is the port the flit arrived on (Local for injections).
	InDir geom.Dir
	// InputOccupancy is the fill fraction of the input channel's buffer,
	// the quantity PANR compares against the threshold B (Algorithm 3).
	InputOccupancy float64
}

// Algorithm selects the output direction for each head flit.
type Algorithm interface {
	// Name identifies the scheme in reports ("XY", "PANR", ...).
	Name() string
	// Route returns the output direction; geom.Local ejects.
	Route(ctx RouteCtx) geom.Dir
}

// XY is dimension-ordered deterministic routing: all X hops, then all Y
// hops. It is deadlock-free and the baseline of §5.2.
type XY struct{}

// Name implements Algorithm.
func (XY) Name() string { return "XY" }

// Route implements Algorithm.
func (XY) Route(ctx RouteCtx) geom.Dir {
	cs, cd := ctx.Net.coord[ctx.At], ctx.Net.coord[ctx.Dst]
	switch {
	case cd.X > cs.X:
		return geom.East
	case cd.X < cs.X:
		return geom.West
	case cd.Y > cs.Y:
		return geom.North
	case cd.Y < cs.Y:
		return geom.South
	default:
		return geom.Local
	}
}

// westFirstPermitted returns the output directions the west-first turn
// model allows from src toward dst (paper ref [32]): a packet that must
// travel west does all west hops first (turns into West are prohibited);
// afterwards it may choose adaptively among the remaining productive
// directions. A zero count means the flit has arrived. The fixed-size
// return keeps route computation off the heap — it runs once per packet
// inside the cycle loop, and the permitted set never exceeds two entries
// (East plus one of North/South). Coordinates come from the network's
// table, so no call divides by the mesh width.
func westFirstPermitted(net *Network, src, dst geom.TileID) (dirs [3]geom.Dir, n int) {
	cs, cd := net.coord[src], net.coord[dst]
	if cd.X < cs.X {
		dirs[0] = geom.West
		return dirs, 1
	}
	if cd.X > cs.X {
		dirs[n] = geom.East
		n++
	}
	if cd.Y > cs.Y {
		dirs[n] = geom.North
		n++
	}
	if cd.Y < cs.Y {
		dirs[n] = geom.South
		n++
	}
	return dirs, n
}

// ICON models the NoC-noise-aware routing of ref [22] (IcoNoClast): among
// the deadlock-free permitted directions it always picks the neighbor whose
// router shows the least switching activity (incoming data rate), spreading
// NoC power noise — but it is agnostic of core activity, the weakness §5.2
// demonstrates.
type ICON struct{}

// Name implements Algorithm.
func (ICON) Name() string { return "ICON" }

// Route implements Algorithm.
func (ICON) Route(ctx RouteCtx) geom.Dir {
	dirs, cnt := westFirstPermitted(ctx.Net, ctx.At, ctx.Dst)
	switch cnt {
	case 0:
		return geom.Local
	case 1:
		return dirs[0]
	}
	return minBy(ctx, dirs[:cnt], func(n geom.TileID) float64 {
		return ctx.Net.IncomingRate(n)
	})
}

// PANR is the paper's PSN- and congestion-aware routing (Algorithm 3):
// west-first permitted directions, then — if the input channel is congested
// beyond threshold B — the neighbor with the least incoming data rate,
// otherwise the neighbor with the least PSN sensor reading.
type PANR struct {
	// Threshold overrides the buffer-occupancy threshold B; zero uses the
	// paper's 0.5 (occupancyThreshold).
	Threshold float64
}

// Name implements Algorithm.
func (PANR) Name() string { return "PANR" }

// Route implements Algorithm.
func (p PANR) Route(ctx RouteCtx) geom.Dir {
	perm, cnt := westFirstPermitted(ctx.Net, ctx.At, ctx.Dst)
	switch cnt {
	case 0:
		return geom.Local
	case 1:
		return perm[0]
	}
	dirs := perm[:cnt]
	b := p.Threshold
	if b <= 0 {
		b = occupancyThreshold
	}
	// The default is the dimension-ordered choice: dirs[0] is exactly XY's
	// direction (TestWestFirstPermittedProperties); the adaptive
	// alternative is taken only when its metric is meaningfully better.
	// Without this hysteresis every worm herds onto the momentarily
	// quietest tile, and a single-VC wormhole network loses more to worm
	// coupling than it gains from adaptivity.
	def := dirs[0]
	if ctx.InputOccupancy > b {
		// Congested: steer toward the neighbor with the least incoming
		// data rate if its score undercuts the default's by more than 1.2
		// flits/cycle — a wide margin, because in a single-VC wormhole
		// network an adaptive turn couples worms across dimensions and
		// usually costs more than a mildly busier but straight path.
		return pickWithHysteresis(ctx, dirs, def, 1.2, func(n geom.TileID) float64 {
			return ctx.Net.IncomingRate(n) + float64(ctx.Net.SensorPSN(n)*1e-3)
		})
	}
	// Deviate for noise only when the default path is actually approaching
	// the voltage-emergency margin AND some alternative is genuinely below
	// it; routing around quiet tiles buys no VE reduction, and detouring
	// from one noisy tile to another pays the adaptivity tax for nothing.
	if defN, ok := ctx.Net.neighbor(ctx.At, def); ok {
		defPSN := ctx.Net.SensorPSN(defN)
		if defPSN < 0.04 {
			return def
		}
		quietAltExists := false
		for _, d := range dirs {
			if d == def {
				continue
			}
			n, ok := ctx.Net.neighbor(ctx.At, d)
			if ok && ctx.Net.SensorPSN(n) < 0.04 && ctx.Net.IncomingRate(n) < 0.35 {
				quietAltExists = true
				break
			}
		}
		if !quietAltExists {
			return def
		}
	}
	// Quiet: steer toward the neighbor with the lowest PSN sensor reading
	// if it beats the default by at least two sensor steps (~0.6% Vdd).
	// A congestion penalty keeps the PSN preference from detouring worms
	// into near-saturated routers (every 0.1 flit/cycle above half
	// capacity costs about one sensor step), and the wide margin keeps
	// deviations rare: in a single-VC wormhole network, adaptive turns
	// couple worms across dimensions, so PANR only pays that cost where a
	// genuinely noisy tile can be avoided.
	const sensorStep = 0.003
	return pickWithHysteresis(ctx, dirs, def, 2*sensorStep, func(n geom.TileID) float64 {
		rate := ctx.Net.IncomingRate(n)
		penalty := 0.0
		if rate > 0.5 {
			penalty = (rate - 0.5) * 0.03
		}
		return ctx.Net.SensorPSN(n) + penalty + float64(rate*1e-4)
	})
}

// neighbor returns the tile one hop from t in direction d, read from the
// neighbour table, and false off the mesh. Like geom.Mesh.Neighbor, a
// direction that names no cardinal port stays at t.
func (n *Network) neighbor(t geom.TileID, d geom.Dir) (geom.TileID, bool) {
	if p := dirIndex(d); p >= 0 && p < portLocal {
		next := n.nbr[t][p]
		return geom.TileID(next), next >= 0
	}
	return t, true
}

// pickWithHysteresis returns the default direction unless an alternative's
// score beats the default's by more than margin (and is the minimum among
// such alternatives).
func pickWithHysteresis(ctx RouteCtx, dirs []geom.Dir, def geom.Dir, margin float64, score func(geom.TileID) float64) geom.Dir {
	defN, ok := ctx.Net.neighbor(ctx.At, def)
	if !ok {
		return def
	}
	threshold := score(defN) - margin
	best := def
	bestScore := threshold
	for _, d := range dirs {
		if d == def {
			continue
		}
		n, ok := ctx.Net.neighbor(ctx.At, d)
		if !ok {
			continue
		}
		if s := score(n); s < bestScore {
			best = d
			bestScore = s
		}
	}
	return best
}

// minBy returns the permitted direction whose neighbor minimizes score,
// breaking ties by listed order for determinism.
func minBy(ctx RouteCtx, dirs []geom.Dir, score func(geom.TileID) float64) geom.Dir {
	best := dirs[0]
	bestScore := 0.0
	for i, d := range dirs {
		n, ok := ctx.Net.neighbor(ctx.At, d)
		if !ok {
			continue // permitted dirs are always in-mesh; defensive
		}
		s := score(n)
		if i == 0 || s < bestScore {
			best = d
			bestScore = s
		}
	}
	return best
}

// AlgorithmByName returns the routing scheme for a CLI name, or false for
// an unknown name. Recognized: "XY", "ICON", "PANR"
// (case-sensitive, as printed by Name).
func AlgorithmByName(name string) (Algorithm, bool) {
	switch name {
	case "XY":
		return XY{}, true
	case "ICON":
		return ICON{}, true
	case "PANR":
		return PANR{}, true
	default:
		return nil, false
	}
}
