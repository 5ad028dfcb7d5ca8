package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/metrics"
	"repro/internal/mpc"
	"repro/internal/texture"
)

// This file holds the ablation studies DESIGN.md calls out: each isolates
// one design choice of the toolkit and measures its contribution.

// calibratedCustomerDemand reproduces the Figure-15 demand anchor for the
// ablations: customer demand calibrated to the reference constellation.
func calibratedCustomerDemand(scale Scale, lib *texture.Library) *demand.Demand {
	starlink := scaledShellSatellites(baseline.StarlinkShells(), scale)
	sup := baseline.Supply(baseline.SupplyConfig{
		Grid: lib.Grid, Slots: lib.Slots, SlotSeconds: lib.SlotSeconds,
		SubSamples: scale.SubSamples, Parallelism: scale.Parallelism,
	}, starlink)
	dem := demand.StarlinkCustomers(scale.ScenarioOptions())
	dem.CalibrateToSupply(sup, scale.Epsilon)
	dem.Scale(0.85)
	return dem
}

// AblationSolver sweeps the solver's two quality knobs — the per-iteration
// add cap and the pruning pass — quantifying why the defaults are
// greedy-with-pruning.
func AblationSolver(scale Scale, lib *texture.Library) (*metrics.Table, error) {
	dem := calibratedCustomerDemand(scale, lib)
	tab := metrics.NewTable("Ablation: solver add-cap and pruning",
		"max add/iter", "pruning", "satellites", "pruned", "iterations", "availability")
	for _, maxAdd := range []int{1, 4, 16, 64} {
		for _, prune := range []bool{true, false} {
			res, err := core.Sparsify(core.Problem{
				Library: lib, Demand: dem.Y, Epsilon: scale.Epsilon,
				MaxAddPerIteration: maxAdd, DisablePrune: !prune,
				Parallelism: scale.Parallelism,
			})
			if err != nil {
				return nil, err
			}
			p := "off"
			if prune {
				p = "on"
			}
			tab.AddRow(maxAdd, p, res.Satellites, res.Pruned, res.Iterations,
				fmt.Sprintf("%.4f", res.Availability))
		}
	}
	return tab, nil
}

// AblationLibraryRichness sweeps the texture library's over-completeness
// (the paper's core premise: more diverse candidates ⇒ better matching)
// by varying the RAAN/phase grid.
func AblationLibraryRichness(scale Scale) (*metrics.Table, error) {
	tab := metrics.NewTable("Ablation: texture library over-completeness",
		"RAANs", "phases", "tracks", "satellites", "availability")
	for _, cfg := range []struct{ raans, phases int }{
		{4, 2}, {8, 3}, {12, 4}, {16, 4},
	} {
		s := scale
		s.RAANs = cfg.raans
		s.Phases = cfg.phases
		lib, err := s.BuildLibrary()
		if err != nil {
			return nil, err
		}
		dem := calibratedCustomerDemand(s, lib)
		// A deliberately achievable target: the poorest library in the
		// sweep cannot reach the headline ε, which is itself the point.
		res, err := core.Sparsify(core.Problem{
			Library: lib, Demand: dem.Y, Epsilon: 0.75, Parallelism: s.Parallelism,
		})
		if err != nil {
			return nil, err
		}
		tab.AddRow(cfg.raans, cfg.phases, lib.NumTracks(), res.Satellites,
			fmt.Sprintf("%.4f", res.Availability))
	}
	return tab, nil
}

// AblationMPCLifetime compares the MPC's lifetime-preference stable
// matching (§4.2's τ) against distance-preference matching: the lifetime
// preference should yield fewer ISL reconfigurations across slots.
func AblationMPCLifetime(scale Scale) (*metrics.Table, error) {
	tb, err := newTestbed(scale)
	if err != nil {
		return nil, err
	}
	// Fine-grained control slots: at coarse slots most churn comes from
	// coverage turnover, masking the preference effect the ablation probes.
	dt := scale.ControlDt / 5
	slots := scale.ControlSlots * 3
	churnWith := func(horizon float64) (int, error) {
		// The testbed's controller with only the τ window changed.
		cfg := tb.Ctl.Config()
		cfg.LifetimeHorizon, cfg.LifetimeStep = horizon, dt/2
		ctl, err := mpc.New(cfg)
		if err != nil {
			return 0, err
		}
		churn := 0
		var prev *mpc.Snapshot
		for s := 0; s < slots; s++ {
			snap := ctl.Compile(float64(s) * dt)
			a, r := mpc.DiffLinks(prev, snap)
			if prev != nil {
				churn += len(a) + len(r)
			}
			prev = snap
		}
		return churn, nil
	}
	// A horizon of one step degenerates τ to binary "visible right now" —
	// the myopic baseline; the full horizon is TinyLEO's design.
	myopic, err := churnWith(dt / 2)
	if err != nil {
		return nil, err
	}
	lifetime, err := churnWith(4 * scale.ControlDt)
	if err != nil {
		return nil, err
	}
	tab := metrics.NewTable("Ablation: MPC ISL-lifetime preference",
		"matching preference", "total ISL changes over run")
	tab.AddRow("myopic (visibility-now)", myopic)
	tab.AddRow("lifetime-predictive (TinyLEO)", lifetime)
	return tab, nil
}

// DiscussionFederation quantifies §7's decentralization story: regional
// operators federating a shared constellation versus planning alone.
func DiscussionFederation(scale Scale, lib *texture.Library) (*metrics.Table, error) {
	opt := scale.ScenarioOptions()
	full := demand.StarlinkCustomers(opt)
	m := lib.Grid.NumCells()
	regionOf := func(minLat, maxLat, minLon, maxLon float64) []float64 {
		out := make([]float64, len(full.Y))
		for i := 0; i < m; i++ {
			c := lib.Grid.Center(i)
			if c.Lat < minLat || c.Lat > maxLat || c.Lon < minLon || c.Lon > maxLon {
				continue
			}
			for s := 0; s < full.Slots; s++ {
				out[s*m+i] = full.Y[s*m+i] * 0.01
			}
		}
		return out
	}
	eps := scale.RelaxedEpsilon
	ops := []core.Operator{
		{Name: "americas", Demand: regionOf(-56, 60, -130, -30), Epsilon: eps},
		{Name: "emea", Demand: regionOf(-35, 60, -15, 60), Epsilon: eps},
		{Name: "apac", Demand: regionOf(-45, 55, 60, 180), Epsilon: eps},
	}
	fed, err := core.Federate(core.Problem{Library: lib, Parallelism: scale.Parallelism}, ops)
	if err != nil {
		return nil, err
	}
	tab := metrics.NewTable("Discussion (§7): multi-operator federation",
		"operator", "contribution (sats)", "availability on shared fleet")
	for _, name := range fed.OperatorNames() {
		tab.AddRow(name, fed.ContributionSize(name),
			fmt.Sprintf("%.4f", fed.Availability[name]))
	}
	tab.AddRow("federated total", fed.Satellites, "-")
	tab.AddRow("independent total", fed.IndependentSatellites, "-")
	tab.AddRow("sharing gain", fed.SharingGain,
		fmt.Sprintf("%.1f%%", 100*float64(fed.SharingGain)/float64(max(1, fed.IndependentSatellites))))
	return tab, nil
}

// DiscussionRadioOverlap quantifies §7's radio-link point: TinyLEO's
// sparse layout leaves fewer overlapping satellite footprints per
// demand-weighted cell than a uniform mega-constellation, easing spectrum
// and interference management.
func DiscussionRadioOverlap(scale Scale, outs []*SparsifyOutcome) (*metrics.Table, error) {
	tab := metrics.NewTable("Discussion (§7): radio footprint overlap over demand cells",
		"constellation", "mean satellites visible per demand cell", "p90")
	countCfg := baseline.SupplyConfig{
		Grid: scale.Grid(), Slots: scale.Slots, SlotSeconds: scale.SlotSeconds,
		SubSamples: 1, CountSatellites: true, Parallelism: scale.Parallelism,
	}
	o := outs[0] // the global-customers scenario
	weightStats := func(counts []float64) (mean, p90 float64) {
		var vals []float64
		for k, y := range o.Demand.Y {
			if y > 0 {
				vals = append(vals, counts[k])
			}
		}
		s := metrics.Summarize(vals)
		return s.Mean, s.P90
	}
	tinyCounts := baseline.Supply(countCfg, RealizeConstellation(o.Lib, o.TinyLEO))
	slCounts := baseline.Supply(countCfg, o.Starlink)
	tm, tp := weightStats(tinyCounts)
	sm, sp := weightStats(slCounts)
	tab.AddRow("TinyLEO", fmt.Sprintf("%.1f", tm), fmt.Sprintf("%.1f", tp))
	tab.AddRow("Starlink-like uniform", fmt.Sprintf("%.1f", sm), fmt.Sprintf("%.1f", sp))
	return tab, nil
}
