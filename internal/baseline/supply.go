package baseline

import (
	"runtime"
	"sync"

	"repro/internal/geo"
	"repro/internal/orbit"
	"repro/internal/texture"
)

// SupplyConfig parameterizes supply evaluation of a concrete constellation
// over the unfolded (slot × cell) space, mirroring the texture library's
// coverage semantics so constellations and sparsifier outputs are directly
// comparable.
type SupplyConfig struct {
	Grid        *geo.Grid
	Slots       int
	SlotSeconds float64
	SubSamples  int
	Coverage    orbit.CoverageParams
	Parallelism int
	// CountSatellites switches the supply semantics: false (default)
	// yields capacity supply — each satellite's coverage sums to 1 per
	// slot, the paper's A_t(i,j) "fraction of satellite j's radio link
	// coverage over cell i" — used by the sparsifier's demand accounting.
	// True yields visibility counts (1 per covered cell), the §4.2
	// geographic invariant ("number of available satellites over a cell")
	// used by the control plane.
	CountSatellites bool
}

func (c *SupplyConfig) fillDefaults() {
	if c.Grid == nil {
		c.Grid = geo.DefaultGrid()
	}
	if c.Slots <= 0 {
		c.Slots = 96
	}
	if c.SlotSeconds <= 0 {
		c.SlotSeconds = 900
	}
	if c.SubSamples <= 0 {
		c.SubSamples = 3
	}
	if c.Coverage.MinElevation == 0 {
		c.Coverage = orbit.DefaultCoverageParams
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.NumCPU()
	}
}

// newRasterizer returns a footprint rasterizer sampling c's instants.
func (c SupplyConfig) newRasterizer() *texture.Rasterizer {
	inc := 1.0 / float64(c.SubSamples)
	offsets := make([]float64, c.SubSamples)
	for ss := range offsets {
		offsets[ss] = float64(ss) * inc
	}
	return texture.NewRasterizer(c.Grid, c.SlotSeconds, offsets)
}

// footprintRadii returns each satellite's footprint radius under c.Coverage.
func (c SupplyConfig) footprintRadii(sats []orbit.Elements) []float64 {
	lam := make([]float64, len(sats))
	for i, el := range sats {
		lam[i] = c.Coverage.FootprintRadius(el.Altitude())
	}
	return lam
}

// share is what a satellite supplies to a cell it covered at hits of a
// slot's sample instants, its footprints having covered total cells then.
func (c SupplyConfig) share(hits, total int) float64 {
	if c.CountSatellites {
		return float64(hits) * (1.0 / float64(c.SubSamples))
	}
	return float64(hits) / float64(total)
}

// Supply computes the unfolded supply vector (length slots × cells) of a
// concrete satellite list: entry [t·m+i] is the number of satellites
// (fractionally weighted by sub-slot presence) covering cell i at slot t.
func Supply(cfg SupplyConfig, sats []orbit.Elements) []float64 {
	cfg.fillDefaults()
	m := cfg.Grid.NumCells()
	out := make([]float64, cfg.Slots*m)
	// Each worker owns a range of slots, hence of out, and adds the
	// satellites in index order: no lock, and float sums that do not depend
	// on which goroutine finishes first.
	lam := cfg.footprintRadii(sats)
	workers := min(cfg.Parallelism, cfg.Slots)
	chunk := (cfg.Slots + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < cfg.Slots; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			ras := cfg.newRasterizer()
			for s := lo; s < hi; s++ {
				for i, el := range sats {
					cells, total := ras.Slot(el, lam[i], s)
					for _, c := range cells {
						out[s*m+int(c)] += cfg.share(ras.Hits(c), total)
					}
				}
			}
		}(lo, min(lo+chunk, cfg.Slots))
	}
	wg.Wait()
	return out
}

// WasteRatio returns the paper's Figure 4 statistic per satellite-slot:
// (supply − satisfied demand) / satisfied demand aggregated over the whole
// horizon, i.e. how much of the deployed capacity is wasted relative to
// what serves users.
func WasteRatio(supply, demand []float64) float64 {
	totSat, _ := texture.Satisfied(supply, demand)
	totSup := 0.0
	for _, s := range supply {
		totSup += s
	}
	if totSat == 0 {
		if totSup == 0 {
			return 0
		}
		return 1e9 // all supply wasted
	}
	return (totSup - totSat) / totSat
}
