// Package geom provides the 2D mesh geometry primitives used throughout the
// PARM simulator: tile coordinates, cardinal directions, Manhattan distance,
// and the row-major tile indexing shared by the chip, NoC, and mapping
// packages.
//
// The CMP in the paper is a 10x6 mesh of tiles. Tiles are identified either
// by a Coord (X in [0,W), Y in [0,H)) or by a TileID, the row-major index
// Y*W + X. X grows eastward and Y grows northward, matching the turn-model
// conventions used by the routing algorithms in package noc.
package geom

import "fmt"

// TileID is the row-major index of a tile in the mesh: Y*Width + X.
type TileID int

// Coord is a 2D mesh coordinate. X grows to the east, Y to the north.
type Coord struct {
	X, Y int
}

// Dir is a cardinal hop direction in the mesh, plus Local for the
// tile-internal (ejection) port.
type Dir int

// Hop directions. The zero value is DirInvalid so that an unset direction is
// never mistaken for a real one.
const (
	DirInvalid Dir = iota
	East
	West
	North
	South
	Local
)

// NumPorts is the number of router ports (4 cardinal + local).
const NumPorts = 5

// String returns the conventional single-letter name of the direction.
func (d Dir) String() string {
	switch d {
	case East:
		return "E"
	case West:
		return "W"
	case North:
		return "N"
	case South:
		return "S"
	case Local:
		return "L"
	default:
		return "?"
	}
}

// Opposite returns the direction that reverses d. Local and invalid
// directions map to themselves.
func (d Dir) Opposite() Dir {
	switch d {
	case East:
		return West
	case West:
		return East
	case North:
		return South
	case South:
		return North
	default:
		return d
	}
}

// Delta returns the coordinate change of one hop in direction d.
func (d Dir) Delta() (dx, dy int) {
	switch d {
	case East:
		return 1, 0
	case West:
		return -1, 0
	case North:
		return 0, 1
	case South:
		return 0, -1
	default:
		return 0, 0
	}
}

// CardinalDirs lists the four hop directions in a fixed, deterministic order.
var CardinalDirs = [4]Dir{East, West, North, South}

// Mesh describes a W x H 2D mesh and converts between TileIDs and Coords.
type Mesh struct {
	Width, Height int
}

// NewMesh returns a mesh of the given dimensions. It panics if either
// dimension is not positive; mesh dimensions are static configuration and a
// non-positive value is a programming error.
func NewMesh(w, h int) Mesh {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("geom: invalid mesh dimensions %dx%d", w, h))
	}
	return Mesh{Width: w, Height: h}
}

// NumTiles returns the total number of tiles in the mesh.
func (m Mesh) NumTiles() int { return m.Width * m.Height }

// Contains reports whether c lies inside the mesh.
func (m Mesh) Contains(c Coord) bool {
	return c.X >= 0 && c.X < m.Width && c.Y >= 0 && c.Y < m.Height
}

// ValidTile reports whether id is a valid tile index for this mesh.
func (m Mesh) ValidTile(id TileID) bool {
	return id >= 0 && int(id) < m.NumTiles()
}

// CoordOf returns the coordinate of tile id.
func (m Mesh) CoordOf(id TileID) Coord {
	return Coord{X: int(id) % m.Width, Y: int(id) / m.Width}
}

// TileAt returns the TileID at coordinate c.
func (m Mesh) TileAt(c Coord) TileID {
	return TileID(c.Y*m.Width + c.X)
}

// Neighbor returns the tile one hop from id in direction d and true, or
// (0, false) when the hop leaves the mesh.
func (m Mesh) Neighbor(id TileID, d Dir) (TileID, bool) {
	c := m.CoordOf(id)
	dx, dy := d.Delta()
	n := Coord{X: c.X + dx, Y: c.Y + dy}
	if !m.Contains(n) {
		return 0, false
	}
	return m.TileAt(n), true
}

// ManhattanDist returns the Manhattan (hop) distance between tiles a and b.
func (m Mesh) ManhattanDist(a, b TileID) int {
	ca, cb := m.CoordOf(a), m.CoordOf(b)
	return abs(ca.X-cb.X) + abs(ca.Y-cb.Y)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
