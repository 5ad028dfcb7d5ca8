package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/orbit"
	"repro/internal/texture"
)

// SparsifyOutcome is the full result bundle of one demand scenario's
// sparsification run (the backbone of Figures 13, 14, and 15).
type SparsifyOutcome struct {
	Scenario string
	Demand   *demand.Demand
	Lib      *texture.Library

	Starlink       []orbit.Elements // the reference uniform constellation
	StarlinkSupply []float64

	TinyLEO        *core.Result
	TinyLEORelaxed *core.Result
	MegaReduce     *baseline.ShellReduceResult // nil if the shrinker found no feasible start
	ILP            *baseline.ILPResult
}

// Scenarios returns the paper's three demand fields (Figure 13) at the
// given scale, static by default (diurnal handled in Figure15d).
func Scenarios(scale Scale) []*demand.Demand {
	opt := scale.ScenarioOptions()
	return []*demand.Demand{
		demand.StarlinkCustomers(opt),
		demand.InternetBackbone(opt),
		demand.LatinAmerica(opt),
	}
}

// RunSparsification runs the Figure 15 pipeline for every scenario.
func RunSparsification(scale Scale, lib *texture.Library) ([]*SparsifyOutcome, error) {
	// Reference constellation: the Starlink-like multi-shell layout,
	// proportionally slimmed at Small scale.
	starlink := scaledShellSatellites(baseline.StarlinkShells(), scale)
	supCfg := baseline.SupplyConfig{
		Grid: lib.Grid, Slots: lib.Slots, SlotSeconds: lib.SlotSeconds,
		SubSamples: scale.SubSamples, Parallelism: scale.Parallelism,
	}
	starlinkSupply := baseline.Supply(supCfg, starlink)

	var outs []*SparsifyOutcome
	for _, dem := range Scenarios(scale) {
		out := &SparsifyOutcome{
			Scenario: dem.Name, Demand: dem, Lib: lib,
			Starlink: starlink, StarlinkSupply: starlinkSupply,
		}
		// The paper's premise: the mega-constellation serves this demand;
		// anchor the demand scale to its supply at ε, then keep 15%
		// operational headroom (real constellations are not sized exactly
		// to the demand knee; without slack no baseline could shrink at
		// all and the comparison would be vacuous).
		dem.CalibrateToSupply(starlinkSupply, scale.Epsilon)
		dem.Scale(0.85)

		var err error
		out.TinyLEO, err = core.Sparsify(core.Problem{
			Library: lib, Demand: dem.Y, Epsilon: scale.Epsilon,
			Parallelism: scale.Parallelism,
		})
		if err != nil {
			return nil, fmt.Errorf("sparsify %s: %w", dem.Name, err)
		}
		out.TinyLEORelaxed, err = core.Sparsify(core.Problem{
			Library: lib, Demand: dem.Y, Epsilon: scale.RelaxedEpsilon,
			Parallelism: scale.Parallelism,
		})
		if err != nil {
			return nil, fmt.Errorf("sparsify relaxed %s: %w", dem.Name, err)
		}

		// MegaReduce: iteratively shrink the same multi-shell layout while
		// it keeps the availability target (plane-uniform moves only).
		if mr, err := baseline.MegaReduceShells(baseline.ShellReduceConfig{
			Supply: supCfg, Demand: dem.Y, Epsilon: scale.Epsilon,
			Shells: scaledShells(scale),
		}); err == nil {
			out.MegaReduce = mr
		}

		// Truncated exact ILP (the Gurobi stand-in).
		out.ILP, err = baseline.SolveILP(baseline.ILPConfig{
			Library: lib, Demand: dem.Y, Epsilon: scale.Epsilon,
			Budget: time.Duration(scale.ILPBudgetSeconds * float64(time.Second)),
		})
		if err != nil {
			return nil, fmt.Errorf("ilp %s: %w", dem.Name, err)
		}
		outs = append(outs, out)
	}
	return outs, nil
}

// Figure13 summarizes the three demand scenarios.
func Figure13(outs []*SparsifyOutcome) *metrics.Table {
	tab := metrics.NewTable("Figure 13: LEO network broadband demands",
		"scenario", "total demand (sat-units/slot)", "cells with demand", "70% demand in surface %")
	for _, o := range outs {
		tab.AddRow(o.Scenario,
			fmt.Sprintf("%.0f", o.Demand.Total()/float64(o.Demand.Slots)),
			o.Demand.NonZeroCells(),
			fmt.Sprintf("%.1f%%", 100*o.Demand.SpatialConcentration(0.7)))
	}
	return tab
}

// Figure14 summarizes TinyLEO's sparse layouts (the map views of Fig. 14).
func Figure14(outs []*SparsifyOutcome) *metrics.Table {
	tab := metrics.NewTable("Figure 14: TinyLEO on-demand sparse LEO networks",
		"scenario", "satellites", "tracks used", "library tracks", "availability")
	for _, o := range outs {
		tab.AddRow(o.Scenario, o.TinyLEO.Satellites, len(o.TinyLEO.ChosenTracks()),
			o.Lib.NumTracks(), fmt.Sprintf("%.4f", o.TinyLEO.Availability))
	}
	return tab
}

// Figure15a is the headline comparison: constellation sizes.
func Figure15a(outs []*SparsifyOutcome) *metrics.Table {
	tab := metrics.NewTable("Figure 15a: total LEO satellites to meet demand",
		"scenario", "TinyLEO", "ILP(truncated)", "MegaReduce", "Starlink-like", "compression")
	for _, o := range outs {
		mr := "-"
		if o.MegaReduce != nil {
			mr = fmt.Sprintf("%d", o.MegaReduce.Satellites)
		}
		ilp := fmt.Sprintf("%d", o.ILP.Satellites)
		if o.ILP.Truncated {
			ilp += "*"
		}
		tab.AddRow(o.Scenario, o.TinyLEO.Satellites, ilp, mr, len(o.Starlink),
			fmt.Sprintf("%.1fx", float64(len(o.Starlink))/float64(max(1, o.TinyLEO.Satellites))))
	}
	return tab
}

// Figure15b compares satellite waste across solutions.
func Figure15b(outs []*SparsifyOutcome) *metrics.Table {
	tab := metrics.NewTable("Figure 15b: reduction of satellite waste (waste ratio, lower is better)",
		"scenario", "TinyLEO", "MegaReduce", "Starlink-like")
	for _, o := range outs {
		supCfg := baseline.SupplyConfig{
			Grid: o.Lib.Grid, Slots: o.Lib.Slots, SlotSeconds: o.Lib.SlotSeconds,
		}
		tinySupply := o.Lib.Supply(o.TinyLEO.X)
		tinyWaste := baseline.WasteRatio(tinySupply, o.Demand.Y)
		mrWaste := "-"
		if o.MegaReduce != nil {
			mrWaste = fmt.Sprintf("%.2f", baseline.WasteRatio(
				baseline.Supply(supCfg, o.MegaReduce.Remaining), o.Demand.Y))
		}
		slWaste := baseline.WasteRatio(o.StarlinkSupply, o.Demand.Y)
		tab.AddRow(o.Scenario, fmt.Sprintf("%.2f", tinyWaste), mrWaste, fmt.Sprintf("%.2f", slWaste))
	}
	return tab
}

// Figure15c renders the availability-vs-size curves (diminishing returns)
// from the solver traces, plus the relaxed-ε sizes.
func Figure15c(outs []*SparsifyOutcome) *metrics.Table {
	tab := metrics.NewTable("Figure 15c: availability vs number of satellites",
		"scenario", "satellites", "availability")
	for _, o := range outs {
		tr := o.TinyLEO.Trace
		step := max(1, len(tr)/8)
		for i := 0; i < len(tr); i += step {
			tab.AddRow(o.Scenario, tr[i].Satellites, fmt.Sprintf("%.4f", tr[i].Availability))
		}
		if len(tr) > 0 {
			last := tr[len(tr)-1]
			tab.AddRow(o.Scenario, last.Satellites, fmt.Sprintf("%.4f", last.Availability))
		}
		tab.AddRow(o.Scenario+" (relaxed ε)", o.TinyLEORelaxed.Satellites,
			fmt.Sprintf("%.4f", o.TinyLEORelaxed.Availability))
	}
	return tab
}

// Figure15d quantifies the diurnal saving: satellites needed for static
// peak demand versus diurnal demand (paper: 18.5% fewer; 26% with relaxed
// availability).
func Figure15d(scale Scale, lib *texture.Library) (*metrics.Table, error) {
	opt := scale.ScenarioOptions()
	static := demand.StarlinkCustomers(opt)
	dOpt := opt
	model := demand.DefaultDiurnal
	dOpt.Diurnal = &model
	dynamic := demand.StarlinkCustomers(dOpt)

	// Anchor both to the same reference supply.
	starlink := scaledShellSatellites(baseline.StarlinkShells(), scale)
	supCfg := baseline.SupplyConfig{
		Grid: lib.Grid, Slots: lib.Slots, SlotSeconds: lib.SlotSeconds,
		SubSamples: scale.SubSamples, Parallelism: scale.Parallelism,
	}
	sup := baseline.Supply(supCfg, starlink)
	scaleFactor := static.CalibrateToSupply(sup, scale.Epsilon)
	dynamic.Scale(scaleFactor) // same per-user demand, diurnally modulated

	tab := metrics.NewTable("Figure 15d: impact of diurnal user dynamics",
		"demand model", "ε", "satellites", "saving vs static")
	type run struct {
		name string
		dem  *demand.Demand
		eps  float64
	}
	runs := []run{
		{"static peak", static, scale.Epsilon},
		{"diurnal", dynamic, scale.Epsilon},
		{"static peak", static, scale.RelaxedEpsilon},
		{"diurnal", dynamic, scale.RelaxedEpsilon},
	}
	baselineSats := map[float64]int{}
	for _, r := range runs {
		res, err := core.Sparsify(core.Problem{
			Library: lib, Demand: r.dem.Y, Epsilon: r.eps, Parallelism: scale.Parallelism,
		})
		if err != nil {
			return nil, fmt.Errorf("fig15d %s: %w", r.name, err)
		}
		saving := "-"
		if r.name == "static peak" {
			baselineSats[r.eps] = res.Satellites
		} else if b := baselineSats[r.eps]; b > 0 {
			saving = fmt.Sprintf("%.1f%%", 100*float64(b-res.Satellites)/float64(b))
		}
		tab.AddRow(r.name, fmt.Sprintf("%.3f", r.eps), res.Satellites, saving)
	}
	return tab, nil
}

// Figure1Maps renders the Figure 1/13/14 world maps as ASCII: the demand
// field and TinyLEO's matched supply for each scenario.
func Figure1Maps(outs []*SparsifyOutcome) string {
	var sb strings.Builder
	for _, o := range outs {
		g := o.Lib.Grid
		m := g.NumCells()
		sb.WriteString(fmt.Sprintf("--- %s: demand (peak slot) ---\n", o.Scenario))
		sb.WriteString(geo.RenderMap(g, func(cell int) float64 {
			return o.Demand.At(0, cell)
		}))
		supply := o.Lib.Supply(o.TinyLEO.X)
		sb.WriteString(fmt.Sprintf("--- %s: TinyLEO supply (slot 0, %d satellites) ---\n",
			o.Scenario, o.TinyLEO.Satellites))
		sb.WriteString(geo.RenderMap(g, func(cell int) float64 {
			return supply[cell%m]
		}))
	}
	return sb.String()
}
