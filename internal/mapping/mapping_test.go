package mapping

import (
	"math"
	"testing"

	"parm/internal/appmodel"
	"parm/internal/chip"
	"parm/internal/geom"
	"parm/internal/pdn"
)

func mkChip(t *testing.T) *chip.Chip {
	t.Helper()
	c, err := chip.New(chip.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClustersInvariants(t *testing.T) {
	for _, b := range appmodel.Benchmarks() {
		for _, dop := range appmodel.DoPValues() {
			g := b.Graph(dop)
			clusters := Clusters(g)

			// Every task appears exactly once.
			seen := map[appmodel.TaskID]bool{}
			for _, cl := range clusters {
				if len(cl.Tasks) == 0 || len(cl.Tasks) > pdn.DomainTiles {
					t.Fatalf("%s dop=%d: cluster size %d", b.Name, dop, len(cl.Tasks))
				}
				for _, task := range cl.Tasks {
					if seen[task] {
						t.Fatalf("%s dop=%d: task %d in two clusters", b.Name, dop, task)
					}
					seen[task] = true
				}
			}
			if len(seen) != dop {
				t.Fatalf("%s dop=%d: %d tasks clustered", b.Name, dop, len(seen))
			}

			// At most one cluster mixes activity classes (Algorithm 2's
			// single leftover cluster).
			mixed := 0
			for _, cl := range clusters {
				classes := map[pdn.Class]bool{}
				for _, task := range cl.Tasks {
					classes[g.Tasks[task].Activity] = true
				}
				if len(classes) > 1 {
					mixed++
					if !cl.Mixed {
						t.Errorf("%s dop=%d: mixed cluster not flagged", b.Name, dop)
					}
				}
			}
			if mixed > 1 {
				t.Errorf("%s dop=%d: %d mixed clusters, want at most 1", b.Name, dop, mixed)
			}

			// DoP is a multiple of 4, so clusters fill domains exactly.
			if len(clusters) != dop/4 {
				t.Errorf("%s dop=%d: %d clusters, want %d", b.Name, dop, len(clusters), dop/4)
			}
		}
	}
}

// Tasks joined by the heaviest edges land in the same cluster when their
// activity classes match (the communication objective of Algorithm 2).
func TestClustersKeepHeavyEdgesTogether(t *testing.T) {
	g := &appmodel.APG{
		Bench: "synthetic",
		Tasks: []appmodel.Task{
			{ID: 0, Activity: pdn.High, WorkCycles: 1},
			{ID: 1, Activity: pdn.High, WorkCycles: 1},
			{ID: 2, Activity: pdn.High, WorkCycles: 1},
			{ID: 3, Activity: pdn.High, WorkCycles: 1},
			{ID: 4, Activity: pdn.High, WorkCycles: 1},
			{ID: 5, Activity: pdn.High, WorkCycles: 1},
			{ID: 6, Activity: pdn.High, WorkCycles: 1},
			{ID: 7, Activity: pdn.High, WorkCycles: 1},
		},
		Edges: []appmodel.Edge{
			{Src: 0, Dst: 5, Volume: 1000},
			{Src: 1, Dst: 6, Volume: 900},
			{Src: 2, Dst: 3, Volume: 10},
			{Src: 4, Dst: 7, Volume: 5},
		},
	}
	clusters := Clusters(g)
	if len(clusters) != 2 {
		t.Fatalf("%d clusters", len(clusters))
	}
	// The first cluster holds the endpoints of the two heaviest edges.
	first := map[appmodel.TaskID]bool{}
	for _, task := range clusters[0].Tasks {
		first[task] = true
	}
	for _, want := range []appmodel.TaskID{0, 5, 1, 6} {
		if !first[want] {
			t.Errorf("task %d not in the first cluster %v", want, clusters[0].Tasks)
		}
	}
}

func TestPARMMapValid(t *testing.T) {
	c := mkChip(t)
	for _, b := range appmodel.Benchmarks()[:5] {
		for _, dop := range []int{4, 16, 32} {
			g := b.Graph(dop)
			p, ok := PARM{}.Map(c, g)
			if !ok {
				t.Fatalf("%s dop=%d: mapping failed on an empty chip", b.Name, dop)
			}
			if err := p.Validate(c, g); err != nil {
				t.Fatalf("%s dop=%d: %v", b.Name, dop, err)
			}
			if len(p.Domains) != dop/4 {
				t.Errorf("%s dop=%d: claimed %d domains", b.Name, dop, len(p.Domains))
			}
		}
	}
}

func TestPARMMapFailsWhenFull(t *testing.T) {
	c := mkChip(t)
	// Occupy 14 of 15 domains.
	for d := 0; d < 14; d++ {
		if err := c.AssignDomain(chip.DomainID(d), 1, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	g := appmodel.Benchmarks()[0].Graph(8) // needs 2 domains
	if _, ok := (PARM{}).Map(c, g); ok {
		t.Error("mapping succeeded with insufficient domains")
	}
	g4 := appmodel.Benchmarks()[0].Graph(4) // needs 1 domain
	if _, ok := (PARM{}).Map(c, g4); !ok {
		t.Error("mapping failed although one domain is free")
	}
}

// Same-class tasks sit on adjacent slots in a 2H+2L mixed cluster (Fig. 5).
func TestPARMMixedClusterPlacement(t *testing.T) {
	c := mkChip(t)
	g := &appmodel.APG{
		Bench: "mix",
		Tasks: []appmodel.Task{
			{ID: 0, Activity: pdn.High, WorkCycles: 1},
			{ID: 1, Activity: pdn.High, WorkCycles: 1},
			{ID: 2, Activity: pdn.Low, WorkCycles: 1},
			{ID: 3, Activity: pdn.Low, WorkCycles: 1},
		},
		Edges: []appmodel.Edge{
			{Src: 0, Dst: 1, Volume: 100},
			{Src: 2, Dst: 3, Volume: 90},
			{Src: 1, Dst: 2, Volume: 10},
		},
	}
	p, ok := (PARM{}).Map(c, g)
	if !ok {
		t.Fatal("mapping failed")
	}
	if err := p.Validate(c, g); err != nil {
		t.Fatal(err)
	}
	// High pair adjacent, Low pair adjacent.
	if c.Mesh.ManhattanDist(p.TaskTile[0], p.TaskTile[1]) != 1 {
		t.Errorf("High tasks at distance %d", c.Mesh.ManhattanDist(p.TaskTile[0], p.TaskTile[1]))
	}
	if c.Mesh.ManhattanDist(p.TaskTile[2], p.TaskTile[3]) != 1 {
		t.Errorf("Low tasks at distance %d", c.Mesh.ManhattanDist(p.TaskTile[2], p.TaskTile[3]))
	}
}

func TestPARMMapDeterministic(t *testing.T) {
	g := appmodel.Benchmarks()[1].Graph(16)
	c1, c2 := mkChip(t), mkChip(t)
	p1, ok1 := (PARM{}).Map(c1, g)
	p2, ok2 := (PARM{}).Map(c2, g)
	if !ok1 || !ok2 {
		t.Fatal("mapping failed")
	}
	for task, tile := range p1.TaskTile {
		if p2.TaskTile[task] != tile {
			t.Fatalf("task %d mapped to %d then %d", task, tile, p2.TaskTile[task])
		}
	}
}

func TestHMMapValid(t *testing.T) {
	c := mkChip(t)
	for _, b := range appmodel.Benchmarks()[:5] {
		g := b.Graph(16)
		p, ok := (HM{}).Map(c, g)
		if !ok {
			t.Fatalf("%s: HM mapping failed on an empty chip", b.Name)
		}
		if err := p.Validate(c, g); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
	}
}

func TestHMMapFailsWhenFull(t *testing.T) {
	c := mkChip(t)
	for d := 0; d < 13; d++ {
		if err := c.AssignDomain(chip.DomainID(d), 1, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := (HM{}).Map(c, appmodel.Benchmarks()[0].Graph(16)); ok {
		t.Error("HM mapped 16 tasks into 2 free domains")
	}
}

// HM scatters: the domains it selects are spread across the chip, while
// PARM's are compact. Measured as the mean pairwise domain distance.
func TestHMScattersPARMClusters(t *testing.T) {
	g := appmodel.Benchmarks()[7].Graph(16) // swaptions: mostly High tasks

	meanDomainDist := func(p *Placement, c *chip.Chip) float64 {
		sum, n := 0.0, 0
		for i := 0; i < len(p.Domains); i++ {
			for j := i + 1; j < len(p.Domains); j++ {
				ci := c.Domain(p.Domains[i]).Center()
				cj := c.Domain(p.Domains[j]).Center()
				sum += (math.Abs(float64(ci.X-cj.X)) + math.Abs(float64(ci.Y-cj.Y))) / 2
				n++
			}
		}
		return sum / float64(n)
	}

	cHM := mkChip(t)
	pHM, ok := (HM{}).Map(cHM, g)
	if !ok {
		t.Fatal("HM failed")
	}
	cP := mkChip(t)
	pP, ok := (PARM{}).Map(cP, g)
	if !ok {
		t.Fatal("PARM failed")
	}
	if meanDomainDist(pHM, cHM) <= meanDomainDist(pP, cP) {
		t.Errorf("HM domains (%g) not more spread than PARM's (%g)",
			meanDomainDist(pHM, cHM), meanDomainDist(pP, cP))
	}
}

// HM maximizes spacing between High-activity tasks.
func TestHMSpreadsHighTasks(t *testing.T) {
	g := appmodel.Benchmarks()[7].Graph(16)
	c := mkChip(t)
	p, ok := (HM{}).Map(c, g)
	if !ok {
		t.Fatal("HM failed")
	}
	var highTiles []geom.TileID
	for _, task := range g.Tasks {
		if task.Activity == pdn.High {
			highTiles = append(highTiles, p.TaskTile[task.ID])
		}
	}
	if len(highTiles) < 2 {
		t.Skip("not enough high tasks")
	}
	// With >= 2 High tasks spread over scattered domains, no two should be
	// directly adjacent unless forced by capacity.
	adjacent := 0
	for i := 0; i < len(highTiles); i++ {
		for j := i + 1; j < len(highTiles); j++ {
			if c.Mesh.ManhattanDist(highTiles[i], highTiles[j]) == 1 {
				adjacent++
			}
		}
	}
	// swaptions at DoP 16 has 14 High tasks on 16 tiles: some adjacency is
	// unavoidable, but far fewer than a compact packing's ~2 per tile.
	if adjacent > len(highTiles) {
		t.Errorf("%d adjacent High pairs for %d High tasks", adjacent, len(highTiles))
	}
}

// PARM's placement has lower communication cost than HM's: the second
// objective of the heuristic.
func TestPARMCommCostBeatsHM(t *testing.T) {
	for _, b := range []int{0, 1, 4} { // comm-heavy benchmarks
		g := appmodel.Benchmarks()[b].Graph(16)
		cHM := mkChip(t)
		pHM, ok := (HM{}).Map(cHM, g)
		if !ok {
			t.Fatal("HM failed")
		}
		cP := mkChip(t)
		pP, ok := (PARM{}).Map(cP, g)
		if !ok {
			t.Fatal("PARM failed")
		}
		costHM := CommCost(cHM.Mesh, g, pHM)
		costP := CommCost(cP.Mesh, g, pP)
		if costP >= costHM {
			t.Errorf("%s: PARM comm cost %g not below HM %g",
				appmodel.Benchmarks()[b].Name, costP, costHM)
		}
	}
}

func TestPlacementValidateCatchesErrors(t *testing.T) {
	c := mkChip(t)
	g := appmodel.Benchmarks()[0].Graph(4)
	p, ok := (PARM{}).Map(c, g)
	if !ok {
		t.Fatal("mapping failed")
	}
	// Missing task.
	bad := &Placement{Domains: p.Domains, TaskTile: map[appmodel.TaskID]geom.TileID{}}
	if bad.Validate(c, g) == nil {
		t.Error("empty placement accepted")
	}
	// Tile outside claimed domains.
	bad = &Placement{Domains: nil, TaskTile: p.TaskTile}
	if bad.Validate(c, g) == nil {
		t.Error("placement outside domains accepted")
	}
	// Duplicate tile.
	dup := map[appmodel.TaskID]geom.TileID{}
	for task := range p.TaskTile {
		dup[task] = p.TaskTile[0]
	}
	bad = &Placement{Domains: p.Domains, TaskTile: dup}
	if bad.Validate(c, g) == nil {
		t.Error("duplicate tile accepted")
	}
}

func TestMapperNames(t *testing.T) {
	if (PARM{}).Name() != "PARM" || (HM{}).Name() != "HM" {
		t.Error("mapper names wrong")
	}
}

// Mapping onto a partially occupied chip never touches occupied domains.
func TestMapAvoidsOccupiedDomains(t *testing.T) {
	for _, m := range []Mapper{PARM{}, HM{}} {
		c := mkChip(t)
		occupied := map[chip.DomainID]bool{}
		for d := 0; d < 7; d++ {
			if err := c.AssignDomain(chip.DomainID(d), 99, 0.5); err != nil {
				t.Fatal(err)
			}
			occupied[chip.DomainID(d)] = true
		}
		g := appmodel.Benchmarks()[0].Graph(16)
		p, ok := m.Map(c, g)
		if !ok {
			t.Fatalf("%s failed with 8 free domains", m.Name())
		}
		for _, d := range p.Domains {
			if occupied[d] {
				t.Errorf("%s claimed occupied domain %d", m.Name(), d)
			}
		}
	}
}

func TestCommOnlyAblationMapper(t *testing.T) {
	if (PARM{IgnoreActivity: true}).Name() != "PARM-commOnly" {
		t.Error("ablation mapper name wrong")
	}
	c := mkChip(t)
	g := appmodel.Benchmarks()[1].Graph(16)
	p, ok := (PARM{IgnoreActivity: true}).Map(c, g)
	if !ok {
		t.Fatal("comm-only mapping failed")
	}
	if err := p.Validate(c, g); err != nil {
		t.Fatal(err)
	}
	// Comm-only clustering mixes activity classes in more than one cluster
	// for a benchmark with interleaved High/Low communication.
	mixed := 0
	for _, d := range p.Domains {
		classes := map[pdn.Class]bool{}
		for _, tile := range c.Domain(d).Tiles {
			for task, tt := range p.TaskTile {
				if tt == tile {
					classes[g.Tasks[task].Activity] = true
				}
			}
		}
		if len(classes) > 1 {
			mixed++
		}
	}
	if mixed <= 1 {
		t.Errorf("comm-only clustering produced only %d mixed domains; ablation has no contrast", mixed)
	}
}
