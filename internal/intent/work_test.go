package intent_test

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/dataplane"
)

// fwdTestbed is the ledger's forward-mix system: 529 satellites, 16 cells.
func fwdTestbed(tb testing.TB) *chaos.Testbed {
	tb.Helper()
	bed, err := chaos.NewTestbed(chaos.TestbedConfig{
		Sats: 529, ISLRateBps: dataplane.ISLRateBpsDefault, QueueLimit: 4096,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return bed
}

// A source-major all-pairs sweep builds the route graph once and runs one
// Dijkstra a source.
func TestAllPairsSweepWork(t *testing.T) {
	bed := fwdTestbed(t)
	graphs0, trees0 := bed.Topo.Work()
	pairs, routed := 0, 0
	for _, src := range bed.Cells {
		for _, dst := range bed.Cells {
			if src == dst {
				continue
			}
			pairs++
			if _, err := bed.Topo.ShortestPathRoute(src, dst); err == nil {
				routed++
			}
		}
	}
	graphs, trees := bed.Topo.Work()
	if len(bed.Cells) != 16 || pairs != 240 || routed != 240 {
		t.Fatalf("%d cells, %d pairs, %d routed: want 16, 240, 240", len(bed.Cells), pairs, routed)
	}
	if graphs-graphs0 != 1 || trees-trees0 != 16 {
		t.Errorf("the sweep built %d graphs and %d trees, want 1 and 16", graphs-graphs0, trees-trees0)
	}
}

// BenchmarkAllPairsRoutes is that sweep on forward-mix's intent, from an
// unbuilt view: a mutation (the same satellite count again) drops it first.
func BenchmarkAllPairsRoutes(b *testing.B) {
	bed := fwdTestbed(b)
	topo, cells := bed.Topo, bed.Cells
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topo.AddCell(cells[0], topo.MinSats[cells[0]])
		for _, src := range cells {
			for _, dst := range cells {
				if src != dst {
					if _, err := topo.ShortestPathRoute(src, dst); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
}
