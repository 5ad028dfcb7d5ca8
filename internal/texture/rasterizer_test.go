package texture

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/orbit"
)

// TestRasterizerSlotIsSortedUnion checks Slot against a recount: its cells are
// strictly ascending and exactly the union of Grid.CellsWithin at the slot's
// sample instants, Hits is each cell's number of instants (zero off the
// union, so nothing of the previous slot is left behind), and total their sum.
// The seeded cases must include footprints across the antimeridian, over a
// pole, and wider than a hemisphere (the full-row branch).
func TestRasterizerSlotIsSortedUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	offsets := []float64{0, 1.0 / 3, 2.0 / 3}
	specs := orbit.EnumerateRepeatSpecs(2, 423e3, 1873e3)
	var sawDateline, sawPole, sawHemisphere int
	for _, deg := range []float64{4, 6, 10} {
		g := geo.MustGrid(deg)
		ras := NewRasterizer(g, 900, offsets)
		for _, incDeg := range []float64{30, 85, 97.6, -70} {
			for trial := 0; trial < 40; trial++ {
				spec := specs[rng.Intn(len(specs))]
				el := spec.Elements(geom.Deg2Rad(incDeg), geom.Deg2Rad(rng.Float64()*360-180), rng.Float64()*2*math.Pi)
				lam := orbit.DefaultCoverageParams.FootprintRadius(el.Altitude())
				switch trial % 8 {
				case 6:
					lam = geom.Deg2Rad(25 + 40*rng.Float64())
				case 7:
					lam = math.Pi/2 + rng.Float64()
				}
				s := rng.Intn(96)

				count := map[int]int{}
				wantTotal := 0
				for _, off := range offsets {
					p := el.SubSatellitePoint((float64(s) + off) * 900)
					within := g.CellsWithin(p, lam)
					for _, c := range within {
						count[c]++
					}
					wantTotal += len(within)
					if lam > math.Pi/2 {
						sawHemisphere++
					} else if radDeg := geom.Rad2Deg(lam); math.Abs(p.Lat)+radDeg > 90 {
						sawPole++
					} else if slices.Contains(within, g.CellOf(geom.LatLon{Lat: p.Lat, Lon: -180})) && slices.Contains(within, g.CellOf(geom.LatLon{Lat: p.Lat, Lon: 179.99})) {
						sawDateline++
					}
				}
				want := make([]int32, 0, len(count))
				for c := range count {
					want = append(want, int32(c))
				}
				slices.Sort(want)

				cells, total := ras.Slot(el, lam, s)
				if !slices.Equal(cells, want) || total != wantTotal {
					t.Fatalf("%v° grid, inc %v°, %v, lam %.3f, slot %d: Slot = %v total %d, want %v total %d",
						deg, incDeg, spec, lam, s, cells, total, want, wantTotal)
				}
				for c := range int32(g.NumCells()) {
					if ras.Hits(c) != count[int(c)] {
						t.Fatalf("%v° grid, inc %v°, %v, lam %.3f, slot %d: Hits(%d) = %d, recount %d",
							deg, incDeg, spec, lam, s, c, ras.Hits(c), count[int(c)])
					}
				}
			}
		}
	}
	if sawDateline == 0 || sawPole == 0 || sawHemisphere == 0 {
		t.Errorf("cases: %d across the antimeridian, %d over a pole, %d wider than a hemisphere; want some of each",
			sawDateline, sawPole, sawHemisphere)
	}
}

// BenchmarkRasterizerSlot is one slot of one track at the ledger's loop-plan
// sizing (6° grid, three instants per 900 s slot): the unit of work a library
// build repeats tracks × slots times.
func BenchmarkRasterizerSlot(b *testing.B) {
	offsets := []float64{0, 1.0 / 3, 2.0 / 3}
	ras := NewRasterizer(geo.MustGrid(6), 900, offsets)
	el := orbit.RepeatSpec{P: 1, Q: 13}.Elements(geom.Deg2Rad(53), geom.Deg2Rad(20), 1)
	lam := orbit.DefaultCoverageParams.FootprintRadius(el.Altitude())
	ras.Slot(el, lam, 0)
	cells := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, _ := ras.Slot(el, lam, i%24)
		cells += len(c)
	}
	b.ReportMetric(float64(cells)/float64(b.N), "cells/op")
}
