package experiments

import (
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/demand"
	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/orbit"
	"repro/internal/texture"
)

// Table1 reproduces Table 1: statistics of the candidate Earth-repeat
// ground-track library (paper: 423–1,873 km, 92.8–124.2 min, 64,800
// tracks; the count is configuration-dependent, the bands are physics).
func Table1(lib *texture.Library) *metrics.Table {
	st := lib.Stats()
	tab := metrics.NewTable("Table 1: candidate Earth-repeat ground tracks",
		"metric", "value", "paper")
	tab.AddRow("orbital altitude range (km)",
		fmt.Sprintf("%.0f-%.0f", st.MinAltKm, st.MaxAltKm), "423-1,873")
	tab.AddRow("orbital period range (min)",
		fmt.Sprintf("%.1f-%.1f", st.MinPeriodMin, st.MaxPeriodMin), "92.8-124.2")
	tab.AddRow("RAAN range", "[-180°, 180°)", "[-π, π]")
	tab.AddRow("inclination values", len(dedupFloats(lib)), "[0, π]")
	tab.AddRow("repeat (p,q) families", st.NumSpecs, "-")
	tab.AddRow("total candidate tracks", st.NumTracks, "64,800")
	tab.AddRow("coverage entries (nnz)", st.CoverageEntriesTotal, "-")
	return tab
}

func dedupFloats(lib *texture.Library) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, tr := range lib.Tracks {
		v := tr.InclinationDeg()
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// Figure3 reproduces Figure 3: the spatial long tail of global demand (3a)
// and its diurnal dynamics (3b).
func Figure3(scale Scale) []*metrics.Table {
	opt := scale.ScenarioOptions()
	d := demand.StarlinkCustomers(opt)

	spatial := metrics.NewTable("Figure 3a: spatial demand unevenness",
		"metric", "value", "paper")
	spatial.AddRow("surface fraction holding 70% of demand",
		fmt.Sprintf("%.1f%%", 100*d.SpatialConcentration(0.7)), "~5% of land")
	spatial.AddRow("surface fraction holding 90% of demand",
		fmt.Sprintf("%.1f%%", 100*d.SpatialConcentration(0.9)), "long tail")
	mask := geo.NewLandMask(d.Grid)
	spatial.AddRow("ocean fraction of Earth",
		fmt.Sprintf("%.1f%%", 100*mask.OceanFraction()), "70.8%")
	spatial.AddRow("cells with demand", d.NonZeroCells(), "-")

	diurnal := metrics.NewTable("Figure 3b: diurnal activity minima (fraction of peak)",
		"region", "min activity", "paper")
	model := demand.DefaultDiurnal
	minAct := 1.0
	for h := 0.0; h < 24; h += 0.25 {
		if a := model.Activity(h); a < minAct {
			minAct = a
		}
	}
	diurnal.AddRow("United States", fmt.Sprintf("%.1f%%", 100*minAct), "51.9%")
	diurnal.AddRow("Germany", fmt.Sprintf("%.1f%%", 100*minAct), "42.7%")
	diurnal.AddRow("Japan", fmt.Sprintf("%.1f%%", 100*minAct), "39.1%")
	return []*metrics.Table{spatial, diurnal}
}

// Figure4 reproduces Figure 4: satellite waste in a uniform
// mega-constellation under uneven demand — the waste-ratio distribution
// and a hotspot cell's time-varying coverage.
func Figure4(scale Scale) []*metrics.Table {
	opt := scale.ScenarioOptions()
	dem := demand.StarlinkCustomers(opt)
	shells := baseline.StarlinkShells()
	// At Small scale, slim the constellation proportionally to keep the
	// runtime down while preserving the uniform layout.
	sats := scaledShellSatellites(shells, scale)
	supCfg := baseline.SupplyConfig{
		Grid: dem.Grid, Slots: dem.Slots, SlotSeconds: dem.SlotSeconds,
		SubSamples: scale.SubSamples, Parallelism: scale.Parallelism,
	}
	supply := baseline.Supply(supCfg, sats)
	// Anchor the demand to what this constellation can actually serve
	// (the paper's premise: demand scaled to Starlink's capacity).
	dem.CalibrateToSupply(supply, scale.Epsilon)

	tab := metrics.NewTable("Figure 4: uniform LEO network resource waste",
		"metric", "value", "paper")
	waste := baseline.WasteRatio(supply, dem.Y)
	tab.AddRow("satellites", len(sats), "Starlink 6,793")
	tab.AddRow("overall waste ratio (supply-demand)/demand",
		fmt.Sprintf("%.1f", waste), "up to ~1000x in idle areas")
	tab.AddRow("availability after calibration",
		fmt.Sprintf("%.3f", texture.Availability(supply, dem.Y)), ">= ε")

	// Per-cell waste distribution (Fig. 4 left CDF).
	m := dem.Grid.NumCells()
	var ratios []float64
	for i := 0; i < m; i++ {
		sup, ddm := 0.0, 0.0
		for t := 0; t < dem.Slots; t++ {
			sup += supply[t*m+i]
			ddm += dem.Y[t*m+i]
		}
		if sup == 0 {
			continue
		}
		if ddm == 0 {
			ratios = append(ratios, 1000) // fully wasted cell, capped
			continue
		}
		r := (sup - min(sup, ddm)) / min(sup, ddm)
		ratios = append(ratios, r)
	}
	s := metrics.Summarize(ratios)
	tab.AddRow("per-cell waste ratio p50", s.P50, "-")
	tab.AddRow("per-cell waste ratio p90", s.P90, "-")
	tab.AddRow("cells with supply but zero demand (fully wasted)",
		countF(ratios, func(v float64) bool { return v >= 1000 }), "most oceanic cells")

	// Hotspot coverage dynamics (Fig. 4 right): satellites over one
	// hotspot cell per slot.
	hotspot := dem.Grid.CellOf(geom.LatLon{Lat: 40.7, Lon: -74})
	cov := metrics.NewTable("Figure 4 (right): hotspot coverage over time (NYC cell)",
		"slot", "satellites overhead")
	for t := 0; t < dem.Slots; t++ {
		cov.AddRow(t, fmt.Sprintf("%.1f", supply[t*m+hotspot]))
	}
	return []*metrics.Table{tab, cov}
}

// scaledShellSatellites shrinks each shell by the scale's control budget
// while preserving the multi-shell uniform structure.
func scaledShellSatellites(shells []baseline.Shell, scale Scale) []orbit.Elements {
	total := 0
	for _, sh := range shells {
		total += sh.Config.NumSatellites()
	}
	budget := scale.ControlSats * 6 // Fig. 4 uses a bigger slice than control experiments
	if budget >= total {
		return baseline.ShellSatellites(shells)
	}
	f := float64(budget) / float64(total)
	var out []orbit.Elements
	for _, sh := range shells {
		w := sh.Config
		w.Planes = max(1, int(float64(w.Planes)*math.Sqrt(f)))
		w.SatsPerPlane = max(1, int(float64(w.SatsPerPlane)*math.Sqrt(f)))
		out = append(out, w.Satellites()...)
	}
	return out
}

func countF(xs []float64, pred func(float64) bool) int {
	n := 0
	for _, v := range xs {
		if pred(v) {
			n++
		}
	}
	return n
}
