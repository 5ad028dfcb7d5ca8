package baseline

import (
	"math"
	"testing"

	"repro/internal/demand"
	"repro/internal/geo"
)

// smallFig15ShellReduce is Fig. 15's MegaReduce input at the Small scale of
// internal/experiments: a 10° grid, 12 slots of 900 s at two sub-samples,
// Starlink's shells slimmed to a budget of 1,536 satellites, and the
// Starlink-customers demand calibrated to the slimmed constellation at
// ε = 0.99, then scaled to 85 %.
func smallFig15ShellReduce(tb testing.TB) ShellReduceConfig {
	tb.Helper()
	sup := SupplyConfig{Grid: geo.MustGrid(10), Slots: 12, SlotSeconds: 900, SubSamples: 2}
	shells := StarlinkShells()
	total := 0
	for _, sh := range shells {
		total += sh.Config.NumSatellites()
	}
	f := float64(256*6) / float64(total)
	slim, starlink := make([]Shell, len(shells)), make([]Shell, len(shells))
	for i, sh := range shells {
		w, s := sh.Config, sh.Config
		w.Planes, s.Planes = max(1, int(float64(w.Planes)*math.Sqrt(f))), max(1, int(float64(s.Planes)*math.Sqrt(f)))
		w.SatsPerPlane = max(2, int(float64(w.SatsPerPlane)*math.Sqrt(f)))
		s.SatsPerPlane = max(1, int(float64(s.SatsPerPlane)*math.Sqrt(f)))
		slim[i], starlink[i] = Shell{Name: sh.Name, Config: w}, Shell{Name: sh.Name, Config: s}
	}
	dem := demand.StarlinkCustomers(demand.ScenarioOptions{Grid: sup.Grid, Slots: sup.Slots, SlotSeconds: sup.SlotSeconds})
	dem.CalibrateToSupply(Supply(sup, ShellSatellites(starlink)), 0.99)
	dem.Scale(0.85)
	return ShellReduceConfig{Supply: sup, Demand: dem.Y, Epsilon: 0.99, Shells: slim}
}

// BenchmarkMegaReduceShells is one MegaReduce run on Fig. 15's Small-scale
// input: the per-satellite packed rows built once, then every candidate
// move scored against them.
func BenchmarkMegaReduceShells(b *testing.B) {
	cfg := smallFig15ShellReduce(b)
	b.ReportAllocs()
	b.ResetTimer()
	var res *ShellReduceResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = MegaReduceShells(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.EntriesVisited), "entries/op")
	b.ReportMetric(float64(res.Satellites), "satellites")
}

// TestMegaReduceShellsEntriesVisited pins the work of one MegaReduce run on
// Fig. 15's Small-scale input: the satellites it keeps (Fig. 15a's
// MegaReduce cell) and the exact number of packed coverage entries it reads,
// which moves only if the search or the rows change.
func TestMegaReduceShellsEntriesVisited(t *testing.T) {
	res, err := MegaReduceShells(smallFig15ShellReduce(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Satellites != 919 || res.EntriesVisited != 2532550 {
		t.Errorf("%d satellites after reading %d entries; want 919 after 2,532,550", res.Satellites, res.EntriesVisited)
	}
}
