// Backbone backup: use a small LEO network as a standby for the
// international Internet backbone (the paper's Figure 13b scenario).
// Plans a sparse constellation for the inter-regional capacity matrix,
// declares a backbone topology intent, compiles it with the orbital MPC,
// and routes traffic with the cross-oceanic offloading policy.
//
//	go run ./examples/backbone-backup
package main

import (
	"fmt"
	"log"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/intent"
	"repro/internal/mpc"
	"repro/internal/orbit"
	"repro/internal/texture"
)

func main() {
	grid, err := geo.NewGrid(10)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Backbone demand: inter-regional O-D capacities routed along great
	// circles onto cells (satellite units per cell).
	dem := demand.InternetBackbone(demand.ScenarioOptions{
		Grid: grid, Slots: 8, SlotSeconds: 900,
	})
	fmt.Printf("backbone demand: %s\n", dem)

	// 2. Sparsify against an Earth-repeat library.
	lib, err := texture.Build(texture.Config{
		Grid:            grid,
		Specs:           orbit.EnumerateRepeatSpecs(1, 500e3, 1873e3),
		InclinationsDeg: []float64{30, 53, 70, -53},
		RAANs:           8, Phases: 3, Slots: 8, SlotSeconds: 900,
	})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := core.Sparsify(core.Problem{
		Library: lib, Demand: dem.Y, Epsilon: 0.9,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sparse backup constellation: %d satellites (availability %.3f)\n",
		plan.Satellites, plan.Availability)

	// 3. A trans-Atlantic backbone intent: NY ↔ London ↔ Frankfurt.
	endpoints := map[string]geom.LatLon{
		"new-york":  {Lat: 40.7, Lon: -74},
		"london":    {Lat: 51.5, Lon: 0},
		"frankfurt": {Lat: 50.1, Lon: 8.7},
	}
	topo, anchors := intent.BackboneIntent(grid, endpoints,
		[][2]string{{"new-york", "london"}, {"london", "frankfurt"}}, 3, 1)
	if errs := topo.Verify(intent.DefaultVerifyConfig); len(errs) > 0 {
		log.Fatalf("intent rejected: %v", errs)
	}
	fmt.Printf("backbone intent: %d cells, %d edges, connected=%v\n",
		len(topo.Cells()), len(topo.Edges), topo.Connected())

	// 4. Compile the intent over a dense operator constellation with the
	// orbital MPC, at three control slots: the intent stays fixed while the
	// satellite topology evolves.
	sats := baseline.WalkerConfig{
		InclinationDeg: 53, AltitudeKm: 1200, Planes: 20, SatsPerPlane: 20, PhasingF: 1,
	}.Satellites()
	ctl, err := mpc.New(mpc.Config{
		Topo: topo, Sats: sats,
		Coverage: orbit.CoverageParams{MinElevation: geom.Deg2Rad(15)},
	})
	if err != nil {
		log.Fatal(err)
	}
	for slot := 0; slot < 3; slot++ {
		t := float64(slot) * 300
		snap := ctl.Compile(t)
		fmt.Printf("t=%4.0fs: %2d inter-cell ISLs, %2d ring ISLs, enforcement %.2f\n",
			t, len(snap.InterLinks), len(snap.RingLinks), ctl.EnforcementRatio(snap))
	}

	// 5. Route policies over the stable intent.
	shortest, err := topo.ShortestPathRoute(anchors["new-york"], anchors["frankfurt"])
	if err != nil {
		log.Fatal(err)
	}
	offload, err := topo.OceanicOffloadRoute(anchors["new-york"], anchors["frankfurt"], 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shortest-path route: %d cells, %.0f km, %.1f ms one-way propagation\n",
		len(shortest.Cells), topo.Length(shortest)/1e3, 1e3*topo.PropagationDelay(shortest))
	fmt.Printf("oceanic-offload route: %d cells, %.0f km\n",
		len(offload.Cells), topo.Length(offload)/1e3)
}
