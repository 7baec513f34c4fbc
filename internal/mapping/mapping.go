// Package mapping implements task-to-core mapping for NoC-based CMPs with
// 2x2 power-supply domains: the paper's PSN-aware clustering heuristic
// (Algorithm 2, package type PARM) and the harmonic-mapping baseline of
// ref [21] (type HM), which scatters high-activity tasks far apart.
//
// A mapper only decides placement onto currently free domains; voltage,
// parallelism, and power-budget admission are the runtime's job (package
// core, Algorithm 1).
package mapping

import (
	"fmt"

	"parm/internal/appmodel"
	"parm/internal/chip"
	"parm/internal/geom"
)

// Placement is a successful mapping of one application.
type Placement struct {
	// Domains lists the power-supply domains the application occupies.
	Domains []chip.DomainID
	// TaskTile maps each APG task to its tile.
	TaskTile map[appmodel.TaskID]geom.TileID
}

// Mapper finds a placement for an application graph on the chip's free
// domains. It returns (nil, false) when no viable placement exists under
// the scheme's rules (paper: "unable to find viable mapping").
type Mapper interface {
	// Name identifies the scheme in reports ("PARM", "HM").
	Name() string
	Map(c *chip.Chip, g *appmodel.APG) (*Placement, bool)
}

// CommCost returns the total communication cost of a placement: the sum of
// edge volume times Manhattan distance, the second objective the paper's
// heuristic minimizes.
func CommCost(m geom.Mesh, g *appmodel.APG, p *Placement) float64 {
	cost := 0.0
	for _, e := range g.Edges {
		src, ok1 := p.TaskTile[e.Src]
		dst, ok2 := p.TaskTile[e.Dst]
		if !ok1 || !ok2 {
			continue
		}
		cost += e.Volume * float64(m.ManhattanDist(src, dst))
	}
	return cost
}

// Validate checks placement invariants against the graph: every task placed
// exactly once, no tile reused, and every tile inside a listed domain.
func (p *Placement) Validate(c *chip.Chip, g *appmodel.APG) error {
	if len(p.TaskTile) != g.NumTasks() {
		return fmt.Errorf("mapping: placed %d of %d tasks", len(p.TaskTile), g.NumTasks())
	}
	inDomains := map[geom.TileID]bool{}
	for _, d := range p.Domains {
		for _, t := range c.Domain(d).Tiles {
			inDomains[t] = true
		}
	}
	seen := map[geom.TileID]bool{}
	// Walk tasks in ID order so the first violation reported is fixed.
	for task := appmodel.TaskID(0); int(task) < g.NumTasks(); task++ {
		tile, ok := p.TaskTile[task]
		if !ok {
			// With the count check above, a missing task means another
			// entry names a task the graph does not have.
			return fmt.Errorf("mapping: task %d not placed", task)
		}
		if seen[tile] {
			return fmt.Errorf("mapping: tile %d used twice", tile)
		}
		seen[tile] = true
		if !inDomains[tile] {
			return fmt.Errorf("mapping: tile %d outside claimed domains", tile)
		}
	}
	return nil
}

// domainDist returns the Manhattan distance between two domains' centers in
// tile units (halved center-grid units).
func domainDist(c *chip.Chip, a, b chip.DomainID) int {
	ca, cb := c.Domain(a).Center(), c.Domain(b).Center()
	return (abs(ca.X-cb.X) + abs(ca.Y-cb.Y)) / 2
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
