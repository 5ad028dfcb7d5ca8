// Package geo partitions the Earth's surface into the geographic cells that
// TinyLEO uses everywhere: demand cells for the sparsifier (§4.1), intent
// nodes for the control plane (§4.2), and anycast segments for the data
// plane (§4.3). It also provides a coarse land mask built from embedded
// continent polygons.
//
// The default 4°×4° grid yields 45×90 = 4,050 cells, the paper's m.
package geo

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// Grid is an equirectangular lat/lon cell grid. Cell IDs are dense ints in
// [0, NumCells()), row-major from the south pole westmost cell.
type Grid struct {
	cellDeg    float64
	nLat, nLon int

	// The footprint rasterizer's tables, filled on its first use: every
	// cell center as a unit vector and cos(latitude) of every row's centers.
	rasterOnce sync.Once
	units      []geom.Vec3
	rowCos     []float64
	// footprints is the per-radius part of AppendCellsWithin's work for the
	// radii seen lately. A published slice is never written again: a miss
	// publishes a longer copy, and one past maxFootprints starts over.
	footprints atomic.Pointer[[]footprint]
}

// footprint is what AppendCellsWithin needs of a radius whatever the point: a
// satellite's footprint radius is constant along its track, so the rasterizer
// asks for the same few radii millions of times. halfCols[row] columns either
// side of the center column can hold a cell of that row within radius.
type footprint struct {
	radius, cosR float64
	halfCols     []int
}

const maxFootprints = 32

// DefaultCellSizeDeg reproduces the paper's 4,050-cell partition.
const DefaultCellSizeDeg = 4.0

// NewGrid creates a grid with square cells of cellDeg degrees. cellDeg must
// divide 180 evenly.
func NewGrid(cellDeg float64) (*Grid, error) {
	if cellDeg <= 0 {
		return nil, fmt.Errorf("geo: non-positive cell size %v", cellDeg)
	}
	nLat := 180 / cellDeg
	if nLat != math.Trunc(nLat) {
		return nil, fmt.Errorf("geo: cell size %v° does not divide 180°", cellDeg)
	}
	return &Grid{cellDeg: cellDeg, nLat: int(nLat), nLon: int(2 * nLat)}, nil
}

// MustGrid is NewGrid that panics on error; for tests and fixed configs.
func MustGrid(cellDeg float64) *Grid {
	g, err := NewGrid(cellDeg)
	if err != nil {
		panic(err)
	}
	return g
}

// DefaultGrid returns the paper's 4° grid (4,050 cells).
func DefaultGrid() *Grid { return MustGrid(DefaultCellSizeDeg) }

// CellSizeDeg returns the cell edge length in degrees.
func (g *Grid) CellSizeDeg() float64 { return g.cellDeg }

// NumCells returns the total number of cells.
func (g *Grid) NumCells() int { return g.nLat * g.nLon }

// LatRows and LonCols return the grid dimensions.
func (g *Grid) LatRows() int { return g.nLat }

// LonCols returns the number of longitude columns.
func (g *Grid) LonCols() int { return g.nLon }

// CellOf returns the ID of the cell containing p.
func (g *Grid) CellOf(p geom.LatLon) int {
	row := int((p.Lat + 90) / g.cellDeg)
	if row >= g.nLat {
		row = g.nLat - 1 // lat == +90
	}
	if row < 0 {
		row = 0
	}
	col := int((geom.NormalizeLon(p.Lon) + 180) / g.cellDeg)
	if col >= g.nLon {
		col = g.nLon - 1
	}
	return row*g.nLon + col
}

// RowCol returns the (row, col) of cell id.
func (g *Grid) RowCol(id int) (row, col int) { return id / g.nLon, id % g.nLon }

// CellID returns the ID at (row, col), wrapping col around the antimeridian.
func (g *Grid) CellID(row, col int) int {
	col = ((col % g.nLon) + g.nLon) % g.nLon
	return row*g.nLon + col
}

// Center returns the center point of cell id.
func (g *Grid) Center(id int) geom.LatLon {
	row, col := g.RowCol(id)
	return geom.LatLon{
		Lat: -90 + (float64(row)+0.5)*g.cellDeg,
		Lon: geom.NormalizeLon(-180 + (float64(col)+0.5)*g.cellDeg),
	}
}

// Bounds returns the cell's (minLat, minLon, maxLat, maxLon) in degrees.
func (g *Grid) Bounds(id int) (minLat, minLon, maxLat, maxLon float64) {
	row, col := g.RowCol(id)
	minLat = -90 + float64(row)*g.cellDeg
	minLon = -180 + float64(col)*g.cellDeg
	return minLat, minLon, minLat + g.cellDeg, minLon + g.cellDeg
}

// AreaFraction returns the fraction of the sphere's area covered by cell
// id: cells shrink toward the poles by the cosine of latitude.
func (g *Grid) AreaFraction(id int) float64 {
	minLat, _, maxLat, _ := g.Bounds(id)
	band := math.Sin(geom.Deg2Rad(maxLat)) - math.Sin(geom.Deg2Rad(minLat))
	return band / 2 / float64(g.nLon)
}

// Neighbors4 returns the IDs of the 4-neighborhood of cell id: east and
// west neighbors wrap around the antimeridian; north/south neighbors are
// omitted at the polar rows.
func (g *Grid) Neighbors4(id int) []int {
	row, col := g.RowCol(id)
	out := make([]int, 0, 4)
	out = append(out, g.CellID(row, col-1), g.CellID(row, col+1))
	if row > 0 {
		out = append(out, g.CellID(row-1, col))
	}
	if row < g.nLat-1 {
		out = append(out, g.CellID(row+1, col))
	}
	return out
}

// CellsWithin returns the IDs of every cell whose center lies within the
// great-circle angular radius (radians) of p.
func (g *Grid) CellsWithin(p geom.LatLon, radius float64) []int {
	return appendCellsWithin(g, []int{}, p, radius)
}

// AppendCellsWithin appends to dst what CellsWithin returns, in the same
// order, as int32 ids, and returns the extended slice. This is the footprint
// rasterizer used to build coverage matrices, so it allocates nothing beyond
// dst's growth and avoids scanning the whole grid: only latitude rows within
// the radius are visited, and within each row only the longitude span that
// can possibly be in range, from its westmost column eastwards across the
// antimeridian.
func (g *Grid) AppendCellsWithin(dst []int32, p geom.LatLon, radius float64) []int32 {
	return appendCellsWithin(g, dst, p, radius)
}

func appendCellsWithin[T int | int32](g *Grid, dst []T, p geom.LatLon, radius float64) []T {
	g.rasterOnce.Do(g.fillRasterTables)
	fp := g.footprint(radius)
	radDeg := geom.Rad2Deg(radius)
	rowLo := max(int((p.Lat-radDeg+90)/g.cellDeg), 0)
	rowHi := min(int((p.Lat+radDeg+90)/g.cellDeg), g.nLat-1)
	pu := p.ToUnit()
	colC := g.CellID(0, int((geom.NormalizeLon(p.Lon)+180)/g.cellDeg))
	for row := rowLo; row <= rowHi; row++ {
		// The row's span: n columns eastwards from column lo, or all of them.
		lo, n := colC-fp.halfCols[row], 2*fp.halfCols[row]+1
		if n > g.nLon {
			lo, n = 0, g.nLon
		} else if lo < 0 {
			lo += g.nLon
		}
		base, first := row*g.nLon, min(n, g.nLon-lo)
		dst = appendRun(g, dst, base+lo, base+lo+first, pu, fp.cosR)
		dst = appendRun(g, dst, base, base+n-first, pu, fp.cosR)
	}
	return dst
}

// appendRun appends the cells of [lo, hi) whose centers lie within the
// footprint: the exact check behind the row and column bounds.
func appendRun[T int | int32](g *Grid, dst []T, lo, hi int, pu geom.Vec3, cosR float64) []T {
	for id := lo; id < hi; id++ {
		if g.units[id].Dot(pu) >= cosR {
			dst = append(dst, T(id))
		}
	}
	return dst
}

// footprint returns the radius's table, computing and publishing it on a
// miss. Of two goroutines missing at once the later publication stands; the
// other's table is recomputed when next asked for.
func (g *Grid) footprint(radius float64) footprint {
	var known []footprint
	if p := g.footprints.Load(); p != nil {
		known = *p
	}
	for i := range known {
		if known[i].radius == radius {
			return known[i]
		}
	}
	fp := footprint{radius: radius, cosR: math.Cos(radius), halfCols: make([]int, g.nLat)}
	sinR := math.Sin(radius)
	for row, cosLat := range g.rowCos {
		// Longitude half-span at this latitude band (degrees), inflated by a
		// cell to be safe: the check is exact. The sin(radius)/cos(lat) bound
		// only holds for radius ≤ π/2 and away from the poles; elsewhere every
		// longitude may be in range.
		spanDeg := 180.0
		if s := sinR / cosLat; radius < math.Pi/2 && cosLat > 1e-6 && s < 1 {
			spanDeg = geom.Rad2Deg(math.Asin(s)) + g.cellDeg
		}
		fp.halfCols[row] = int(spanDeg/g.cellDeg) + 1
	}
	if len(known) >= maxFootprints {
		known = nil
	}
	next := append(slices.Clip(known), fp)
	g.footprints.Store(&next)
	return fp
}

func (g *Grid) fillRasterTables() {
	g.units = make([]geom.Vec3, g.NumCells())
	for id := range g.units {
		g.units[id] = g.Center(id).ToUnit()
	}
	g.rowCos = make([]float64, g.nLat)
	for row := range g.rowCos {
		g.rowCos[row] = math.Cos(geom.Deg2Rad(-90 + (float64(row)+0.5)*g.cellDeg))
	}
}

// CenterDistance returns the great-circle distance (m) between the centers
// of cells a and b.
func (g *Grid) CenterDistance(a, b int) float64 {
	return geom.GreatCircleDist(g.Center(a), g.Center(b))
}
