package geo

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/geom"
)

func TestDefaultGridMatchesPaper(t *testing.T) {
	g := DefaultGrid()
	if g.NumCells() != 4050 {
		t.Errorf("default grid has %d cells, paper uses 4,050", g.NumCells())
	}
	if g.LatRows() != 45 || g.LonCols() != 90 {
		t.Errorf("dims %dx%d", g.LatRows(), g.LonCols())
	}
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(0); err == nil {
		t.Error("0 size should fail")
	}
	if _, err := NewGrid(-4); err == nil {
		t.Error("negative size should fail")
	}
	if _, err := NewGrid(7); err == nil {
		t.Error("7° does not divide 180°")
	}
	if _, err := NewGrid(10); err != nil {
		t.Errorf("10° should work: %v", err)
	}
}

func TestCellOfCenterRoundTrip(t *testing.T) {
	g := DefaultGrid()
	for id := 0; id < g.NumCells(); id += 7 {
		c := g.Center(id)
		if got := g.CellOf(c); got != id {
			t.Fatalf("CellOf(Center(%d)) = %d", id, got)
		}
	}
}

func TestCellOfEdgeCases(t *testing.T) {
	g := DefaultGrid()
	// Poles and antimeridian must map to valid cells.
	for _, p := range []geom.LatLon{
		{Lat: 90, Lon: 0}, {Lat: -90, Lon: 0}, {Lat: 0, Lon: -180},
		{Lat: 0, Lon: 180}, {Lat: 89.999, Lon: 179.999},
	} {
		id := g.CellOf(p)
		if id < 0 || id >= g.NumCells() {
			t.Errorf("CellOf(%v) = %d out of range", p, id)
		}
	}
	// North pole lands in the top row.
	row, _ := g.RowCol(g.CellOf(geom.LatLon{Lat: 90, Lon: 0}))
	if row != g.LatRows()-1 {
		t.Errorf("north pole row = %d", row)
	}
}

func TestBoundsContainCenter(t *testing.T) {
	g := MustGrid(10)
	for id := 0; id < g.NumCells(); id++ {
		minLat, minLon, maxLat, maxLon := g.Bounds(id)
		c := g.Center(id)
		if c.Lat <= minLat || c.Lat >= maxLat {
			t.Fatalf("cell %d center lat %v outside [%v,%v]", id, c.Lat, minLat, maxLat)
		}
		cl := geom.NormalizeLon(c.Lon)
		if mid := geom.NormalizeLon((minLon + maxLon) / 2); math.Abs(cl-mid) > 1e-9 {
			t.Fatalf("cell %d center lon %v vs bounds mid %v", id, cl, mid)
		}
	}
}

func TestAreaFractionsSumToOne(t *testing.T) {
	for _, deg := range []float64{4.0, 10.0, 20.0} {
		g := MustGrid(deg)
		sum := 0.0
		for id := 0; id < g.NumCells(); id++ {
			sum += g.AreaFraction(id)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("grid %v°: area fractions sum to %v", deg, sum)
		}
	}
}

func TestAreaShrinksTowardPoles(t *testing.T) {
	g := DefaultGrid()
	equator := g.CellOf(geom.LatLon{Lat: 2, Lon: 0})
	polar := g.CellOf(geom.LatLon{Lat: 86, Lon: 0})
	if g.AreaFraction(polar) >= g.AreaFraction(equator) {
		t.Error("polar cell should be smaller than equatorial cell")
	}
}

func TestNeighbors4(t *testing.T) {
	g := DefaultGrid()
	mid := g.CellOf(geom.LatLon{Lat: 10, Lon: 10})
	nb := g.Neighbors4(mid)
	if len(nb) != 4 {
		t.Fatalf("interior cell has %d neighbors", len(nb))
	}
	for _, n := range nb {
		if g.CenterDistance(mid, n) > 700e3 {
			t.Errorf("neighbor %d too far: %v km", n, g.CenterDistance(mid, n)/1e3)
		}
	}
	// Polar rows lose one neighbor.
	top := g.CellID(g.LatRows()-1, 0)
	if len(g.Neighbors4(top)) != 3 {
		t.Errorf("top-row cell has %d neighbors", len(g.Neighbors4(top)))
	}
	// Antimeridian wrap: the west neighbor of col 0 is col max.
	west := g.Neighbors4(g.CellID(20, 0))[0]
	if _, col := g.RowCol(west); col != g.LonCols()-1 {
		t.Errorf("wrap neighbor col = %d", col)
	}
}

func TestCellsWithinMatchesBruteForce(t *testing.T) {
	g := MustGrid(4)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		p := geom.LatLon{Lat: rng.Float64()*170 - 85, Lon: rng.Float64()*360 - 180}
		radius := geom.Deg2Rad(2 + rng.Float64()*15)
		got := map[int]bool{}
		ids := g.CellsWithin(p, radius)
		for _, id := range ids {
			if got[id] {
				t.Fatalf("duplicate cell %d", id)
			}
			got[id] = true
		}
		assertFootprintOrder(t, g, ids)
		for id := 0; id < g.NumCells(); id++ {
			want := geom.CentralAngle(p, g.Center(id)) <= radius
			if got[id] != want {
				t.Fatalf("trial %d cell %d: got %v want %v (p=%v r=%v°)",
					trial, id, got[id], want, p, geom.Rad2Deg(radius))
			}
		}
	}
}

// assertFootprintOrder checks the order CellsWithin promises: rows south to
// north, and within a row eastwards from the span's westmost column, across
// the antimeridian at most once.
func assertFootprintOrder(t *testing.T, g *Grid, ids []int) {
	t.Helper()
	for i := 0; i < len(ids); {
		row, west := g.RowCol(ids[i])
		if i > 0 && row <= ids[i-1]/g.nLon {
			t.Fatalf("row %d does not follow row %d northwards in %v", row, ids[i-1]/g.nLon, ids)
		}
		east := -1 // columns east of west, modulo the row
		for ; i < len(ids) && ids[i]/g.nLon == row; i++ {
			step := (ids[i]%g.nLon - west + g.nLon) % g.nLon
			if step <= east {
				t.Fatalf("row %d is not one eastward sweep in %v", row, ids)
			}
			east = step
		}
	}
}

// TestCellsWithinPinnedOrder pins two footprints id by id as the parent of the
// radius table (commit 835f84b) returned them: one across the antimeridian,
// whose rows each start on the west side of it, and one over the south pole,
// whose first row is scanned whole and whose second is a partial span.
func TestCellsWithinPinnedOrder(t *testing.T) {
	g := MustGrid(6)
	dateline := []int{1257, 1258, 1259, 1200, 1201, 1317, 1318, 1319, 1260, 1261, 1377, 1378, 1379, 1320, 1321, 1438, 1439, 1380}
	if got := g.CellsWithin(geom.LatLon{Lat: 40, Lon: 178}, geom.Deg2Rad(13)); !reflect.DeepEqual(got, dateline) {
		t.Errorf("antimeridian footprint = %v, want %v", got, dateline)
	}
	var pole []int
	for id := 0; id < 85; id++ {
		if id != 60 && id != 61 {
			pole = append(pole, id)
		}
	}
	if got := g.CellsWithin(geom.LatLon{Lat: -84, Lon: -100}, geom.Deg2Rad(9)); !reflect.DeepEqual(got, pole) {
		t.Errorf("polar footprint = %v, want %v", got, pole)
	}
}

func TestCellsWithinPolar(t *testing.T) {
	g := MustGrid(4)
	// A footprint over the pole must include cells at every longitude.
	ids := g.CellsWithin(geom.LatLon{Lat: 89, Lon: 0}, geom.Deg2Rad(8))
	cols := map[int]bool{}
	for _, id := range ids {
		_, c := g.RowCol(id)
		cols[c] = true
	}
	if len(cols) != g.LonCols() {
		t.Errorf("polar footprint covers %d/%d columns", len(cols), g.LonCols())
	}
}

func TestCellsWithinZeroRadius(t *testing.T) {
	g := MustGrid(10)
	p := g.Center(100)
	ids := g.CellsWithin(p, 0)
	if len(ids) != 1 || ids[0] != 100 {
		t.Errorf("zero radius at a center = %v", ids)
	}
	// Zero radius off-center hits nothing.
	off := geom.LatLon{Lat: p.Lat + 1, Lon: p.Lon + 1}
	if ids := g.CellsWithin(off, 0); len(ids) != 0 {
		t.Errorf("zero radius off-center = %v", ids)
	}
}

func TestCellsWithinGlobalRadius(t *testing.T) {
	g := MustGrid(20)
	ids := g.CellsWithin(geom.LatLon{Lat: 0, Lon: 0}, math.Pi)
	if len(ids) != g.NumCells() {
		t.Errorf("π radius covered %d of %d cells", len(ids), g.NumCells())
	}
}

// cellsWithinReference is CellsWithin as it stood before the rasterizer's
// tables (commit 7fe4e5f): every center and unit vector computed per call.
// AppendCellsWithin must return the same cells in the same order, because
// that order is the order floating-point sums over a footprint are taken in.
func cellsWithinReference(g *Grid, p geom.LatLon, radius float64) []int {
	radDeg := geom.Rad2Deg(radius)
	out := []int{}
	rowLo := max(int((p.Lat-radDeg+90)/g.cellDeg), 0)
	rowHi := min(int((p.Lat+radDeg+90)/g.cellDeg), g.nLat-1)
	pu := p.ToUnit()
	cosR := math.Cos(radius)
	for row := rowLo; row <= rowHi; row++ {
		lat := -90 + (float64(row)+0.5)*g.cellDeg
		cosLat := math.Cos(geom.Deg2Rad(lat))
		spanDeg := 180.0
		if radius < math.Pi/2 && cosLat > 1e-6 {
			if s := math.Sin(radius) / cosLat; s < 1 {
				spanDeg = geom.Rad2Deg(math.Asin(s)) + g.cellDeg
			}
		}
		colC := int((geom.NormalizeLon(p.Lon) + 180) / g.cellDeg)
		halfCols := int(spanDeg/g.cellDeg) + 1
		lo, hi := colC-halfCols, colC+halfCols
		if halfCols*2 >= g.nLon {
			lo, hi = 0, g.nLon-1
		}
		for col := lo; col <= hi; col++ {
			if id := g.CellID(row, col); g.Center(id).ToUnit().Dot(pu) >= cosR {
				out = append(out, id)
			}
		}
	}
	return out
}

func TestAppendCellsWithinMatchesCellsWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, deg := range []float64{4, 6, 10, 20} {
		g := MustGrid(deg)
		points := []geom.LatLon{
			{Lat: 90, Lon: 0}, {Lat: -90, Lon: 37}, {Lat: 89.9, Lon: -120}, {Lat: -88, Lon: 179.9}, // poles
			{Lat: 0, Lon: 180}, {Lat: 12, Lon: -180}, {Lat: -40, Lon: 179.999}, {Lat: 55, Lon: -179.999}, {Lat: 3, Lon: 541}, // antimeridian
			{Lat: 0, Lon: 0}, {Lat: g.Center(7).Lat, Lon: g.Center(7).Lon},
		}
		for i := 0; i < 40; i++ {
			points = append(points, geom.LatLon{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180})
		}
		radii := []float64{0, geom.Deg2Rad(1), geom.Deg2Rad(8.5), geom.Deg2Rad(25), geom.Deg2Rad(70),
			math.Pi/2 - 1e-9, math.Pi / 2, math.Pi/2 + 0.1, 2.5, math.Pi}
		scratch := []int32{-1, -2}
		for _, p := range points {
			for _, radius := range radii {
				want := cellsWithinReference(g, p, radius)
				if got := g.CellsWithin(p, radius); !reflect.DeepEqual(got, want) {
					t.Fatalf("%v° grid, p=%v r=%v: CellsWithin = %v, reference %v", deg, p, radius, got, want)
				}
				scratch = g.AppendCellsWithin(scratch[:2], p, radius)
				if scratch[0] != -1 || scratch[1] != -2 || !slices.Equal(widen(scratch[2:]), want) {
					t.Fatalf("%v° grid, p=%v r=%v: AppendCellsWithin = %v, reference %v after the prefix", deg, p, radius, scratch, want)
				}
				assertFootprintOrder(t, g, want)
			}
		}
	}
}

// widen returns ids as ints.
func widen(ids []int32) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}

// TestFootprintTableReuse drives the per-radius table past its bound and from
// several goroutines at once: a radius met again after the table started over,
// or published by a goroutine that lost the race, still gives the reference's
// cells in the reference's order.
func TestFootprintTableReuse(t *testing.T) {
	g := MustGrid(6)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(23 + w)))
			for i := 0; i < 3*maxFootprints; i++ {
				// Every goroutine walks the same radii, each from its own offset.
				radius := geom.Deg2Rad(1 + float64((i+w*7)%(maxFootprints+5)))
				p := geom.LatLon{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
				if got, want := g.CellsWithin(p, radius), cellsWithinReference(g, p, radius); !reflect.DeepEqual(got, want) {
					t.Errorf("p=%v r=%v: CellsWithin = %v, reference %v", p, radius, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := len(*g.footprints.Load()); n == 0 || n > maxFootprints {
		t.Errorf("%d radii remembered, bound %d", n, maxFootprints)
	}
}

// BenchmarkAppendCellsWithin is one footprint of the ledger's planning grid
// (6°, the highest Table 1 altitude's 12.7° radius) into a reused slice: at a
// mid-latitude point, and at one whose span crosses the antimeridian.
func BenchmarkAppendCellsWithin(b *testing.B) {
	g := MustGrid(6)
	radius := geom.Deg2Rad(12.7)
	for _, bc := range []struct {
		name string
		p    geom.LatLon
	}{
		{"mid-latitude", geom.LatLon{Lat: 41.3, Lon: 17.9}},
		{"dateline", geom.LatLon{Lat: -28.6, Lon: 179.2}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			dst := g.AppendCellsWithin(nil, bc.p, radius)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = g.AppendCellsWithin(dst[:0], bc.p, radius)
			}
			b.ReportMetric(float64(len(dst)), "cells")
		})
	}
}
