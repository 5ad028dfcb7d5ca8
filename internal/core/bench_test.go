package core

import (
	"testing"

	"repro/internal/demand"
	"repro/internal/geo"
	"repro/internal/orbit"
	"repro/internal/texture"
)

func benchProblem(b *testing.B) Problem {
	b.Helper()
	lib, err := texture.Build(texture.Config{
		Grid:            geo.MustGrid(10),
		Specs:           orbit.EnumerateRepeatSpecs(1, 500e3, 1873e3),
		InclinationsDeg: []float64{30, 53, 70, -53},
		RAANs:           8, Phases: 3, Slots: 8, SlotSeconds: 900, SubSamples: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	d := demand.StarlinkCustomers(demand.ScenarioOptions{
		Grid: lib.Grid, Slots: lib.Slots, SlotSeconds: lib.SlotSeconds,
		TotalSatUnits: 80,
	})
	return Problem{Library: lib, Demand: d.Y, Epsilon: 0.8}
}

// loopPlanProblem is the bench/ ledger's `loop-plan` sizing: a 6° grid, 24
// slots, 12 RAANs × 4 phases over the Table 1 altitude band (2,688 tracks,
// 4.27 M entries), 30 satellite-units of diurnal demand, ε = 0.99.
func loopPlanProblem(b *testing.B) Problem {
	b.Helper()
	lib, err := texture.Build(texture.Config{
		Grid: geo.MustGrid(6), Slots: 24, RAANs: 12, Phases: 4,
		Specs: orbit.EnumerateRepeatSpecs(2, 423e3, 1873e3),
	})
	if err != nil {
		b.Fatal(err)
	}
	d := demand.StarlinkCustomers(demand.ScenarioOptions{
		Grid: lib.Grid, Slots: lib.Slots, SlotSeconds: lib.SlotSeconds,
		TotalSatUnits: 30, Diurnal: &demand.DefaultDiurnal,
	})
	return Problem{Library: lib, Demand: d.Y, Epsilon: 0.99}
}

// BenchmarkSparsify measures one full Algorithm 1 run, pruning included, on
// a prebuilt library: a 384-track unit-test sizing and the ledger's
// loop-plan sizing, whose iterations are reported next to the time.
func BenchmarkSparsify(b *testing.B) {
	for _, c := range []struct {
		name    string
		problem func(*testing.B) Problem
	}{{"small", benchProblem}, {"loop-plan", loopPlanProblem}} {
		b.Run(c.name, func(b *testing.B) {
			p := c.problem(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Sparsify(p)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Iterations), "iterations")
			}
		})
	}
}

// BenchmarkSparsifyBatched measures the fast batched-add configuration.
func BenchmarkSparsifyBatched(b *testing.B) {
	p := benchProblem(b)
	p.MaxAddPerIteration = 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sparsify(p); err != nil {
			b.Fatal(err)
		}
	}
}
