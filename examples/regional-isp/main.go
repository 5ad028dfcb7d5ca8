// Regional ISP: a small operator builds an affordable LEO network for
// Latin America only (the paper's Figure 13c scenario and §7 deployment
// story), then grows it incrementally when demand expands — Algorithm 1's
// step-by-step launch plan (§4.1 "Incremental LEO network expansion").
//
//	go run ./examples/regional-isp
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/geo"
	"repro/internal/orbit"
	"repro/internal/texture"
)

func main() {
	grid, err := geo.NewGrid(10)
	if err != nil {
		log.Fatal(err)
	}
	lib, err := texture.Build(texture.Config{
		Grid:            grid,
		Specs:           orbit.EnumerateRepeatSpecs(1, 500e3, 1873e3),
		InclinationsDeg: []float64{30, 53, -30, -53},
		RAANs:           10, Phases: 3, Slots: 10, SlotSeconds: 900,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: serve today's regional customers.
	initial := demand.LatinAmerica(demand.ScenarioOptions{
		Grid: grid, Slots: 10, SlotSeconds: 900, TotalSatUnits: 400,
	})
	fmt.Printf("phase 1 demand: %s\n", initial)
	problem := core.Problem{Library: lib, Demand: initial.Y, Epsilon: 0.95}
	plan, err := core.Sparsify(problem)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 1 constellation: %d satellites on %d orbits (availability %.3f)\n",
		plan.Satellites, len(plan.ChosenTracks()), plan.Availability)

	// The trace doubles as the launch schedule: satellites in the order
	// the matching pursuit selected them, i.e. highest marginal coverage
	// first.
	fmt.Println("launch schedule (first 5 steps):")
	for i, step := range plan.Trace {
		if i == 5 {
			fmt.Println("  ...")
			break
		}
		tr := lib.Tracks[step.Track]
		fmt.Printf("  step %d: +%d sat(s) @ i=%.0f° Ω=%.0f° -> availability %.3f\n",
			step.Iteration, step.Added, tr.InclinationDeg(), tr.RAANDeg(), step.Availability)
	}

	// Phase 2: the ISP lands a contract doubling demand. Expand the
	// existing constellation without touching launched satellites.
	extra := initial.Clone().Scale(1.0) // same field again = double demand
	grown, err := core.Expand(problem, plan, extra.Y)
	if err != nil {
		log.Fatal(err)
	}
	added := grown.Satellites - plan.Satellites
	fmt.Printf("phase 2 expansion: +%d satellites (total %d), availability %.3f\n",
		added, grown.Satellites, grown.Availability)
	for j := range plan.X {
		if grown.X[j] < plan.X[j] {
			log.Fatalf("incremental expansion must not remove satellites (track %d)", j)
		}
	}
	fmt.Println("no launched satellite was moved or retired during expansion")

	// Compare with planning from scratch for the doubled demand.
	combined := initial.Clone().Scale(2)
	fresh, err := core.Sparsify(core.Problem{
		Library: lib, Demand: combined.Y, Epsilon: 0.95,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("from-scratch plan for the same total demand: %d satellites "+
		"(incremental cost of keeping history: %+d)\n",
		fresh.Satellites, grown.Satellites-fresh.Satellites)
}
