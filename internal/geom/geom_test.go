package geom

import (
	"testing"
	"testing/quick"
)

func TestDirString(t *testing.T) {
	cases := map[Dir]string{
		East: "E", West: "W", North: "N", South: "S", Local: "L", DirInvalid: "?",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("Dir(%d).String() = %q, want %q", d, got, want)
		}
	}
}

func TestDirOpposite(t *testing.T) {
	pairs := [][2]Dir{{East, West}, {North, South}}
	for _, p := range pairs {
		if p[0].Opposite() != p[1] || p[1].Opposite() != p[0] {
			t.Errorf("%v and %v are not mutual opposites", p[0], p[1])
		}
	}
	if Local.Opposite() != Local {
		t.Errorf("Local.Opposite() = %v, want Local", Local.Opposite())
	}
	if DirInvalid.Opposite() != DirInvalid {
		t.Errorf("DirInvalid.Opposite() = %v, want DirInvalid", DirInvalid.Opposite())
	}
}

func TestOppositeIsInvolution(t *testing.T) {
	for _, d := range CardinalDirs {
		if d.Opposite().Opposite() != d {
			t.Errorf("Opposite(Opposite(%v)) != %v", d, d)
		}
	}
}

func TestDirDelta(t *testing.T) {
	for _, d := range CardinalDirs {
		dx, dy := d.Delta()
		if dx == 0 && dy == 0 {
			t.Errorf("%v.Delta() = (0,0)", d)
		}
		ox, oy := d.Opposite().Delta()
		if ox != -dx || oy != -dy {
			t.Errorf("%v delta not negated by opposite", d)
		}
	}
	if dx, dy := Local.Delta(); dx != 0 || dy != 0 {
		t.Errorf("Local.Delta() = (%d,%d), want (0,0)", dx, dy)
	}
}

func TestNewMeshPanics(t *testing.T) {
	for _, dims := range [][2]int{{0, 5}, {5, 0}, {-1, 3}, {3, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMesh(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			NewMesh(dims[0], dims[1])
		}()
	}
}

func TestMeshCoordRoundTrip(t *testing.T) {
	m := NewMesh(10, 6)
	if m.NumTiles() != 60 {
		t.Fatalf("NumTiles = %d, want 60", m.NumTiles())
	}
	for id := TileID(0); int(id) < m.NumTiles(); id++ {
		c := m.CoordOf(id)
		if !m.Contains(c) {
			t.Errorf("coord %v of tile %d outside mesh", c, id)
		}
		if got := m.TileAt(c); got != id {
			t.Errorf("TileAt(CoordOf(%d)) = %d", id, got)
		}
	}
}

func TestMeshRowMajorLayout(t *testing.T) {
	m := NewMesh(10, 6)
	if got := m.CoordOf(0); got != (Coord{0, 0}) {
		t.Errorf("tile 0 at %v", got)
	}
	if got := m.CoordOf(9); got != (Coord{9, 0}) {
		t.Errorf("tile 9 at %v", got)
	}
	if got := m.CoordOf(10); got != (Coord{0, 1}) {
		t.Errorf("tile 10 at %v", got)
	}
	if got := m.CoordOf(59); got != (Coord{9, 5}) {
		t.Errorf("tile 59 at %v", got)
	}
}

func TestValidTile(t *testing.T) {
	m := NewMesh(4, 4)
	if m.ValidTile(-1) || m.ValidTile(16) {
		t.Error("out-of-range tile reported valid")
	}
	if !m.ValidTile(0) || !m.ValidTile(15) {
		t.Error("in-range tile reported invalid")
	}
}

func TestNeighborEdges(t *testing.T) {
	m := NewMesh(10, 6)
	// South-west corner.
	if _, ok := m.Neighbor(0, West); ok {
		t.Error("tile 0 has a west neighbor")
	}
	if _, ok := m.Neighbor(0, South); ok {
		t.Error("tile 0 has a south neighbor")
	}
	if n, ok := m.Neighbor(0, East); !ok || n != 1 {
		t.Errorf("east of 0 = %d,%v", n, ok)
	}
	if n, ok := m.Neighbor(0, North); !ok || n != 10 {
		t.Errorf("north of 0 = %d,%v", n, ok)
	}
	// North-east corner.
	last := TileID(59)
	if _, ok := m.Neighbor(last, East); ok {
		t.Error("tile 59 has an east neighbor")
	}
	if _, ok := m.Neighbor(last, North); ok {
		t.Error("tile 59 has a north neighbor")
	}
}

func TestNeighborReciprocity(t *testing.T) {
	m := NewMesh(7, 5)
	for id := TileID(0); int(id) < m.NumTiles(); id++ {
		for _, d := range CardinalDirs {
			n, ok := m.Neighbor(id, d)
			if !ok {
				continue
			}
			back, ok := m.Neighbor(n, d.Opposite())
			if !ok || back != id {
				t.Fatalf("neighbor reciprocity broken at %d dir %v", id, d)
			}
		}
	}
}

func TestNeighborsCountByPosition(t *testing.T) {
	m := NewMesh(10, 6)
	counts := map[int]int{}
	for id := TileID(0); int(id) < m.NumTiles(); id++ {
		n := 0
		for _, d := range CardinalDirs {
			if _, ok := m.Neighbor(id, d); ok {
				n++
			}
		}
		counts[n]++
	}
	// 4 corners with 2 neighbors, 2*(8+4)=24 edge tiles with 3, rest 4.
	if counts[2] != 4 || counts[3] != 24 || counts[4] != 32 {
		t.Errorf("neighbor degree histogram = %v", counts)
	}
}

func TestManhattanDist(t *testing.T) {
	m := NewMesh(10, 6)
	cases := []struct {
		a, b TileID
		want int
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 10, 1}, {0, 11, 2}, {0, 59, 14}, {9, 50, 14},
	}
	for _, c := range cases {
		if got := m.ManhattanDist(c.a, c.b); got != c.want {
			t.Errorf("dist(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestManhattanProperties(t *testing.T) {
	m := NewMesh(10, 6)
	norm := func(v int) TileID { return TileID(((v % 60) + 60) % 60) }
	symmetric := func(a, b int) bool {
		x, y := norm(a), norm(b)
		return m.ManhattanDist(x, y) == m.ManhattanDist(y, x)
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Error(err)
	}
	triangle := func(a, b, c int) bool {
		x, y, z := norm(a), norm(b), norm(c)
		return m.ManhattanDist(x, z) <= m.ManhattanDist(x, y)+m.ManhattanDist(y, z)
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Error(err)
	}
	identity := func(a int) bool {
		return m.ManhattanDist(norm(a), norm(a)) == 0
	}
	if err := quick.Check(identity, nil); err != nil {
		t.Error(err)
	}
}

// The productive directions toward a destination — the cardinal neighbours
// one hop closer — are one per coordinate that differs, and every other
// in-mesh neighbour is one hop farther.
func TestDirsToward(t *testing.T) {
	m := NewMesh(10, 6)
	toward := func(a, b int) bool {
		src := TileID(((a % 60) + 60) % 60)
		dst := TileID(((b % 60) + 60) % 60)
		d0 := m.ManhattanDist(src, dst)
		cs, cd := m.CoordOf(src), m.CoordOf(dst)
		want := 0
		if cs.X != cd.X {
			want++
		}
		if cs.Y != cd.Y {
			want++
		}
		closer := 0
		for _, d := range CardinalDirs {
			n, ok := m.Neighbor(src, d)
			if !ok {
				continue
			}
			switch m.ManhattanDist(n, dst) {
			case d0 - 1:
				closer++
			case d0 + 1:
			default:
				return false
			}
		}
		return closer == want
	}
	if err := quick.Check(toward, nil); err != nil {
		t.Error(err)
	}
}

// ManhattanDist is the coordinate distance |dx| + |dy|.
func TestManhattanCoord(t *testing.T) {
	m := NewMesh(10, 6)
	for _, c := range []struct {
		a, b Coord
		want int
	}{{Coord{1, 2}, Coord{4, 0}, 5}, {Coord{0, 5}, Coord{9, 0}, 14}, {Coord{3, 3}, Coord{3, 3}, 0}} {
		if d := m.ManhattanDist(m.TileAt(c.a), m.TileAt(c.b)); d != c.want {
			t.Errorf("ManhattanDist(%v, %v) = %d, want %d", c.a, c.b, d, c.want)
		}
	}
}
