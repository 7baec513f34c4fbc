package chip

import (
	"math"
	"testing"

	"parm/internal/geom"
	"parm/internal/pdn"
	"parm/internal/power"
)

func mkChip(t *testing.T) *Chip {
	t.Helper()
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDefaultsMatchPaperPlatform(t *testing.T) {
	c := mkChip(t)
	if c.Mesh.Width != 10 || c.Mesh.Height != 6 {
		t.Errorf("mesh %dx%d, want 10x6", c.Mesh.Width, c.Mesh.Height)
	}
	if c.NumDomains() != 15 {
		t.Errorf("%d domains, want 15", c.NumDomains())
	}
	if c.Budget.Available() != 65 {
		t.Errorf("DsPB %g, want 65", c.Budget.Available())
	}
	if c.Node.Node != power.Node7 {
		t.Errorf("node %v, want 7nm", c.Node.Node)
	}
	if len(c.Vdds) != 5 || c.Vdds[0] != 0.4 || c.Vdds[4] != 0.8 {
		t.Errorf("Vdds = %v", c.Vdds)
	}
}

func TestNewRejectsOddDimensions(t *testing.T) {
	for _, dims := range [][2]int{{9, 6}, {10, 5}, {0, 6}, {-2, 4}} {
		if _, err := New(Config{Width: dims[0], Height: dims[1]}); err == nil {
			t.Errorf("New(%dx%d) accepted", dims[0], dims[1])
		}
	}
}

// Non-positive, NaN and infinite budgets or voltage steps are errors, not
// a panic in the budget ledger or a run where no app ever fits.
func TestNewRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"negative DsPB", Config{DsPB: -5}},
		{"NaN DsPB", Config{DsPB: power.Watts(math.NaN())}},
		{"+Inf DsPB", Config{DsPB: power.Watts(math.Inf(1))}},
		{"-Inf DsPB", Config{DsPB: power.Watts(math.Inf(-1))}},
		{"negative VddStep", Config{VddStep: -0.1}},
		{"NaN VddStep", Config{VddStep: power.Volts(math.NaN())}},
		{"+Inf VddStep", Config{VddStep: power.Volts(math.Inf(1))}},
		{"-Inf VddStep", Config{VddStep: power.Volts(math.Inf(-1))}},
	} {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("New(%s) accepted", tc.name)
		}
	}
}

// Every tile belongs to exactly one domain, and the domain's tile list is
// consistent with tileDomain and pdn slot geometry.
func TestDomainTiling(t *testing.T) {
	c := mkChip(t)
	seen := map[geom.TileID]DomainID{}
	for d := 0; d < c.NumDomains(); d++ {
		dom := c.Domain(DomainID(d))
		if dom.Occupied() {
			t.Errorf("fresh domain %d occupied", d)
		}
		for slot, tile := range dom.Tiles {
			if prev, dup := seen[tile]; dup {
				t.Errorf("tile %d in domains %d and %d", tile, prev, d)
			}
			seen[tile] = DomainID(d)
			if c.tileDomain[tile] != DomainID(d) {
				t.Errorf("tile %d (slot %d) maps to domain %d, want %d", tile, slot, c.tileDomain[tile], d)
			}
		}
		// Slot geometry matches pdn.DomainDistance: slots 0-1 adjacent,
		// 0-3 diagonal.
		m := c.Mesh
		if m.ManhattanDist(dom.Tiles[0], dom.Tiles[1]) != 1 ||
			m.ManhattanDist(dom.Tiles[0], dom.Tiles[2]) != 1 ||
			m.ManhattanDist(dom.Tiles[0], dom.Tiles[3]) != 2 {
			t.Errorf("domain %d slot geometry wrong: %v", d, dom.Tiles)
		}
	}
	if len(seen) != c.Mesh.NumTiles() {
		t.Errorf("%d tiles covered, want %d", len(seen), c.Mesh.NumTiles())
	}
}

func TestSlotGeometryMatchesPDNModel(t *testing.T) {
	c := mkChip(t)
	dom := c.Domain(0)
	for a := 0; a < pdn.DomainTiles; a++ {
		for b := 0; b < pdn.DomainTiles; b++ {
			want := pdn.DomainDistance(a, b)
			got := c.Mesh.ManhattanDist(dom.Tiles[a], dom.Tiles[b])
			if got != want {
				t.Errorf("slots %d-%d: mesh dist %d, pdn dist %d", a, b, got, want)
			}
		}
	}
}

func TestAssignPlaceReleaseLifecycle(t *testing.T) {
	c := mkChip(t)
	if err := c.AssignDomain(3, 42, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := c.AssignDomain(3, 43, 0.5); err == nil {
		t.Error("double assignment accepted")
	}
	dom := c.Domain(3)
	if !dom.Occupied() || dom.App != 42 || dom.Vdd != 0.5 {
		t.Errorf("domain state wrong: %+v", dom)
	}
	tile := dom.Tiles[0]
	if err := c.PlaceTask(tile, 42, 0, pdn.High); err != nil {
		t.Fatal(err)
	}
	if err := c.PlaceTask(tile, 42, 1, pdn.Low); err == nil {
		t.Error("double placement accepted")
	}
	if err := c.PlaceTask(dom.Tiles[1], 99, 0, pdn.High); err == nil {
		t.Error("placement by non-owner accepted")
	}
	occ := c.Occupant(tile)
	if occ.App != 42 || occ.Task != 0 || occ.Class != pdn.High || occ.CoreActivity != 0.9 {
		t.Errorf("occupant = %+v", occ)
	}
	for tt := 0; tt < c.Mesh.NumTiles(); tt++ {
		if got := c.Occupant(geom.TileID(tt)).App == 42; got != (geom.TileID(tt) == tile) {
			t.Errorf("tile %d occupied by app 42: %v", tt, got)
		}
	}
	if got := len(c.FreeDomains()); got != 14 {
		t.Errorf("FreeDomains = %d, want 14", got)
	}
	for d := 0; d < c.NumDomains(); d++ {
		if got := c.Domain(DomainID(d)).Occupied(); got != (d == 3) {
			t.Errorf("domain %d occupied: %v", d, got)
		}
	}

	if n := c.ReleaseApp(42); n != 1 {
		t.Errorf("released %d domains, want 1", n)
	}
	if c.Domain(3).Occupied() {
		t.Error("domain still occupied after release")
	}
	if c.Occupant(tile).App != NoApp {
		t.Error("tile still occupied after release")
	}
	if len(c.FreeDomains()) != 15 {
		t.Error("not all domains free after release")
	}
}

func TestReleaseUnknownApp(t *testing.T) {
	c := mkChip(t)
	if n := c.ReleaseApp(7); n != 0 {
		t.Errorf("released %d domains for unknown app", n)
	}
}

func TestSamplePSNIdleChip(t *testing.T) {
	c := mkChip(t)
	s, err := c.SamplePSN(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.ChipPeak() != 0 || s.ActiveAvg() != 0 {
		t.Errorf("idle chip peak=%g avg=%g", s.ChipPeak(), s.ActiveAvg())
	}
}

func TestSamplePSNActiveDomain(t *testing.T) {
	c := mkChip(t)
	if err := c.AssignDomain(5, 1, 0.6); err != nil {
		t.Fatal(err)
	}
	dom := c.Domain(5)
	for slot, tile := range dom.Tiles {
		if err := c.PlaceTask(tile, 1, slot, pdn.High); err != nil {
			t.Fatal(err)
		}
	}
	s, err := c.SamplePSN(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.DomainPeak[5] <= 0 {
		t.Error("active domain shows no PSN")
	}
	if s.ChipPeak() != s.DomainPeak[5] {
		t.Error("chip peak differs from only active domain")
	}
	for _, tile := range dom.Tiles {
		if s.TilePeak[tile] <= 0 {
			t.Errorf("tile %d shows no PSN", tile)
		}
	}
	// Inactive domains stay at zero.
	if s.DomainPeak[0] != 0 {
		t.Error("inactive domain shows PSN")
	}
}

// Router activity adds to tile current and therefore PSN.
func TestSamplePSNRouterContribution(t *testing.T) {
	c := mkChip(t)
	if err := c.AssignDomain(5, 1, 0.6); err != nil {
		t.Fatal(err)
	}
	dom := c.Domain(5)
	for slot, tile := range dom.Tiles {
		if err := c.PlaceTask(tile, 1, slot, pdn.High); err != nil {
			t.Fatal(err)
		}
	}
	quiet, err := c.SamplePSN(nil)
	if err != nil {
		t.Fatal(err)
	}
	util := make([]float64, c.Mesh.NumTiles())
	for _, tile := range dom.Tiles {
		util[tile] = 0.5
	}
	busy, err := c.SamplePSN(util)
	if err != nil {
		t.Fatal(err)
	}
	if busy.DomainPeak[5] <= quiet.DomainPeak[5] {
		t.Errorf("router activity did not raise PSN: %g vs %g",
			busy.DomainPeak[5], quiet.DomainPeak[5])
	}
}

func TestSamplePSNBadUtilLength(t *testing.T) {
	c := mkChip(t)
	if _, err := c.SamplePSN(make([]float64, 3)); err == nil {
		t.Error("short routerUtil accepted")
	}
}

func TestDomainCenter(t *testing.T) {
	c := mkChip(t)
	// Domain 0 spans tiles (0,0)..(1,1): center grid coord (1,1).
	if got := c.Domain(0).Center(); got != (geom.Coord{X: 1, Y: 1}) {
		t.Errorf("domain 0 center = %v", got)
	}
}
