// Quickstart: plan a sparse LEO network for an uneven demand field with
// Algorithm 1, inspect the chosen orbits, and push a packet through a
// geographic-segment-anycast data plane.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/demand"
	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/orbit"
	"repro/internal/texture"
)

func main() {
	// 1. A coarse grid (10° cells) and a small Earth-repeat track library.
	grid, err := geo.NewGrid(10)
	if err != nil {
		log.Fatal(err)
	}
	lib, err := texture.Build(texture.Config{
		Grid:            grid,
		Specs:           orbit.EnumerateRepeatSpecs(1, 500e3, 1600e3),
		InclinationsDeg: []float64{30, 53, 85, -53},
		RAANs:           8,
		Phases:          3,
		Slots:           12,
		SlotSeconds:     900,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("texture library: %d candidate Earth-repeat orbital slots\n", lib.NumTracks())

	// 2. The paper's headline demand: global customers concentrated on a
	// few hotspots (Figure 13a shape), 50 satellite-capacities at peak.
	// Note the gap between demand and the resulting plan size below: a
	// LEO satellite spends most of its orbit over oceans, which is the
	// paper's waste insight and exactly what the sparsifier minimizes.
	dem := demand.StarlinkCustomers(demand.ScenarioOptions{
		Grid: grid, Slots: 12, SlotSeconds: 900, TotalSatUnits: 50,
	})
	fmt.Printf("demand: %s\n", dem)
	fmt.Printf("70%% of demand sits on %.1f%% of the Earth's surface\n",
		100*dem.SpatialConcentration(0.7))

	// 3. Sparsify: the compressed-sensing matching pursuit of §4.1.
	plan, err := core.Sparsify(core.Problem{
		Library: lib, Demand: dem.Y, Epsilon: 0.95,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan: %d satellites on %d of %d candidate slots (availability %.3f)\n",
		plan.Satellites, len(plan.ChosenTracks()), lib.NumTracks(), plan.Availability)
	fmt.Println("first chosen orbits:")
	for i, j := range plan.ChosenTracks() {
		if i == 5 {
			fmt.Println("  ...")
			break
		}
		tr := lib.Tracks[j]
		fmt.Printf("  %d sat(s) @ %.0f km, i=%.0f°, Ω=%.0f° (repeat %d/%d)\n",
			plan.X[j], tr.Elements.Altitude()/1e3, tr.InclinationDeg(), tr.RAANDeg(),
			tr.Spec.P, tr.Spec.Q)
	}

	// 4. Data plane: geographic segment anycast across three cells.
	cellA := grid.CellOf(geom.LatLon{Lat: 40, Lon: -74}) // New York
	cellB := grid.CellOf(geom.LatLon{Lat: 45, Lon: -40}) // mid-Atlantic
	cellC := grid.CellOf(geom.LatLon{Lat: 50, Lon: 0})   // London
	net := dataplane.NewNetwork()
	net.AddSatellite(0, cellA)
	net.AddSatellite(1, cellB)
	net.AddSatellite(2, cellC)
	net.Connect(0, 1, 0.009) // ~2,700 km of laser light
	net.Connect(1, 2, 0.009)
	net.OnDeliver = func(s *dataplane.Satellite, p *dataplane.Packet) {
		fmt.Printf("delivered at satellite %d over cell %d after %.1f ms (hops: %v)\n",
			s.ID, s.Cell, 1e3*(net.Sim.Now()-p.SentAt), p.HopTrace)
	}
	pkt, err := dataplane.NewGeoPacket(0, []int{cellB, cellC}, 1, 1, []byte("hello from NYC"))
	if err != nil {
		log.Fatal(err)
	}
	net.Inject(0, pkt)
	net.Sim.Run(1)
}
