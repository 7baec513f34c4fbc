// Package chip models the CMP platform of the paper (§3.1, §3.3): a 2D
// mesh of tiles (core + router + L1), grouped into 2x2 power-supply domains
// each fed by its own voltage regulator, under a chip-wide dark-silicon
// power budget (DsPB). It tracks which application occupies which domain,
// the per-domain supply voltage, and per-tile task occupancy, and it
// samples PSN for all active domains through the pdn solver.
package chip

import (
	"fmt"
	"math"

	"parm/internal/geom"
	"parm/internal/obs"
	"parm/internal/pdn"
	"parm/internal/power"
)

// DomainID indexes a power-supply domain (a 2x2 tile block with one VRM).
type DomainID int

// NoApp marks an unoccupied domain.
const NoApp = -1

// Domain is one 2x2 power-supply domain. Tiles are stored in pdn slot
// order: (0,0), (1,0), (0,1), (1,1) relative to the domain origin, matching
// pdn.DomainDistance semantics.
type Domain struct {
	ID DomainID
	// Origin is the south-west tile coordinate of the domain.
	Origin geom.Coord
	// Tiles lists the four member tiles in pdn slot order.
	Tiles [pdn.DomainTiles]geom.TileID
	// Vdd is the regulator output; meaningful only when occupied.
	Vdd power.Volts
	// App is the occupying application ID, or NoApp.
	App int
}

// Occupied reports whether the domain currently hosts an application.
func (d *Domain) Occupied() bool { return d.App != NoApp }

// Center returns the domain's center coordinate (at half-tile resolution,
// scaled by 2 to stay integral): used for distance heuristics.
func (d *Domain) Center() geom.Coord {
	return geom.Coord{X: 2*d.Origin.X + 1, Y: 2*d.Origin.Y + 1}
}

// Occupant describes the task running on one tile.
type Occupant struct {
	// App is the owning application ID, or NoApp for an idle tile.
	App int
	// Task is the task index within the app's APG.
	Task int
	// Class is the task's switching-activity class.
	Class pdn.Class
	// CoreActivity is the core switching-activity factor in [0,1].
	CoreActivity float64
}

// Config parameterizes the chip.
type Config struct {
	// Width and Height are the mesh dimensions in tiles; both must be even
	// so the 2x2 domains tile the mesh exactly. Zero selects the paper's
	// 10x6 layout.
	Width, Height int
	// DsPB is the dark-silicon power budget. Zero selects 65 W; New
	// rejects negative, NaN and infinite values.
	DsPB power.Watts
}

// The chip's technology node is a fixed platform constant (DESIGN.md §5):
// the paper evaluates one 7nm chip.
const techNode = power.Node7

func (c Config) withDefaults() Config {
	if c.Width == 0 && c.Height == 0 {
		c.Width, c.Height = 10, 6
	}
	if c.DsPB == 0 {
		c.DsPB = 65
	}
	return c
}

// positiveFinite reports whether v is greater than zero and not +Inf; NaN
// fails the comparison.
func positiveFinite(v float64) bool {
	return v > 0 && !math.IsInf(v, 1)
}

// Chip is the CMP platform state. A Chip is not safe for concurrent use:
// mapping, unmapping and sampling all run on the engine's goroutine.
type Chip struct {
	Mesh geom.Mesh
	// Node holds the 7nm electrical constants.
	Node power.NodeParams
	// Budget is the dark-silicon power budget ledger.
	Budget *power.Budget
	// Vdds lists the permissible supply voltages in increasing order.
	Vdds []power.Volts

	domains    []Domain
	tileDomain []DomainID
	occupants  []Occupant

	// solveCache memoizes domain solves across samples; nil only in the
	// uncached reference chip that tests build.
	solveCache *pdn.SolveCache
	// solver runs every domain solve, reusing its scratch buffers across
	// samples.
	solver *pdn.Solver

	// Telemetry, pre-registered by Instrument; nil metrics discard updates.
	obsSamples       *obs.Counter   // chip/psn/samples
	obsDomainSolves  *obs.Counter   // chip/psn/domain_solves
	obsActiveDomains *obs.Histogram // chip/psn/active_domains
}

// New builds a chip from cfg. It returns an error when the mesh dimensions
// are not positive and even, or when DsPB is not a positive finite
// number.
func New(cfg Config) (*Chip, error) {
	cfg = cfg.withDefaults()
	if cfg.Width <= 0 || cfg.Height <= 0 || cfg.Width%2 != 0 || cfg.Height%2 != 0 {
		return nil, fmt.Errorf("chip: dimensions must be positive and even, got %dx%d", cfg.Width, cfg.Height)
	}
	if !positiveFinite(float64(cfg.DsPB)) {
		return nil, fmt.Errorf("chip: DsPB must be a positive finite power, got %g W", float64(cfg.DsPB))
	}
	m := geom.NewMesh(cfg.Width, cfg.Height)
	params := power.MustParams(techNode)
	c := &Chip{
		Mesh:       m,
		Node:       params,
		Budget:     power.NewBudget(cfg.DsPB),
		Vdds:       params.VddLevels(),
		tileDomain: make([]DomainID, m.NumTiles()),
		occupants:  make([]Occupant, m.NumTiles()),
		solveCache: pdn.NewSolveCache(),
	}
	c.solver = pdn.NewSolver(c.solveCache)
	for i := range c.occupants {
		c.occupants[i].App = NoApp
	}
	dw, dh := cfg.Width/2, cfg.Height/2
	for dy := 0; dy < dh; dy++ {
		for dx := 0; dx < dw; dx++ {
			id := DomainID(dy*dw + dx)
			origin := geom.Coord{X: 2 * dx, Y: 2 * dy}
			d := Domain{ID: id, Origin: origin, App: NoApp}
			// pdn slot order: (0,0), (1,0), (0,1), (1,1).
			slots := [pdn.DomainTiles]geom.Coord{
				{X: origin.X, Y: origin.Y},
				{X: origin.X + 1, Y: origin.Y},
				{X: origin.X, Y: origin.Y + 1},
				{X: origin.X + 1, Y: origin.Y + 1},
			}
			for s, sc := range slots {
				t := m.TileAt(sc)
				d.Tiles[s] = t
				c.tileDomain[t] = id
			}
			c.domains = append(c.domains, d)
		}
	}
	return c, nil
}

// NumDomains returns the number of power-supply domains.
func (c *Chip) NumDomains() int { return len(c.domains) }

// Domain returns a pointer to domain d. It panics on an invalid ID, which
// is a programming error (IDs come from the chip itself).
func (c *Chip) Domain(d DomainID) *Domain {
	return &c.domains[d]
}

// FreeDomains returns the IDs of all unoccupied domains in ascending order.
func (c *Chip) FreeDomains() []DomainID {
	var out []DomainID
	for i := range c.domains {
		if !c.domains[i].Occupied() {
			out = append(out, DomainID(i))
		}
	}
	return out
}

// Occupant returns the occupant of tile t.
func (c *Chip) Occupant(t geom.TileID) Occupant { return c.occupants[t] }

// AssignDomain marks domain d as owned by app at the given Vdd. It returns
// an error if the domain is already occupied.
func (c *Chip) AssignDomain(d DomainID, app int, vdd power.Volts) error {
	dom := &c.domains[d]
	if dom.Occupied() {
		return fmt.Errorf("chip: domain %d already occupied by app %d", d, dom.App)
	}
	dom.App = app
	dom.Vdd = vdd
	return nil
}

// PlaceTask records that task (app, task) of the given activity class runs
// on tile t. The tile's domain must already be assigned to the same app.
func (c *Chip) PlaceTask(t geom.TileID, app, task int, class pdn.Class) error {
	dom := &c.domains[c.tileDomain[t]]
	if dom.App != app {
		return fmt.Errorf("chip: tile %d domain owned by app %d, not %d", t, dom.App, app)
	}
	if c.occupants[t].App != NoApp {
		return fmt.Errorf("chip: tile %d already occupied", t)
	}
	c.occupants[t] = Occupant{
		App:          app,
		Task:         task,
		Class:        class,
		CoreActivity: activityFactor(class),
	}
	return nil
}

// ReleaseApp frees every domain and tile owned by app and returns the
// number of domains released.
func (c *Chip) ReleaseApp(app int) int {
	n := 0
	for i := range c.domains {
		if c.domains[i].App == app {
			c.domains[i].App = NoApp
			c.domains[i].Vdd = 0
			n++
		}
	}
	for t := range c.occupants {
		if c.occupants[t].App == app {
			c.occupants[t] = Occupant{App: NoApp}
		}
	}
	return n
}

// activityFactor mirrors appmodel.ActivityFactor without importing it
// (chip is below appmodel in the dependency order).
func activityFactor(c pdn.Class) float64 {
	switch c {
	case pdn.High:
		return 0.90
	case pdn.Low:
		return 0.35
	default:
		return 0
	}
}
