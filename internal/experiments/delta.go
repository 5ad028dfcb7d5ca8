package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/intent"
	"repro/internal/metrics"
	"repro/internal/mpc"
	"repro/internal/orbit"
	"repro/internal/southbound"
)

// deltaScenario builds the 529-satellite (23×23 Walker) controller over
// the equatorial chain intent — the ISSUE 9 scale for the delta-compile
// speedup claim, matching internal/mpc's benchController. The lifetime
// window spans several control slots so consecutive DeltaCompile calls
// can reuse most visibility samples.
func deltaScenario() (*mpc.Controller, int, error) {
	g := geo.MustGrid(10)
	sats := baseline.WalkerConfig{
		InclinationDeg: 53, AltitudeKm: 1200, Planes: 23, SatsPerPlane: 23, PhasingF: 1,
	}.Satellites()
	topo := intent.NewTopology(g)
	var cells []int
	for i := 0; i < 12; i++ {
		id := g.CellOf(geom.LatLon{Lat: 5, Lon: float64(-55 + i*10)})
		topo.AddCell(id, 8)
		cells = append(cells, id)
	}
	for i := 1; i < len(cells); i++ {
		topo.Connect(cells[i-1], cells[i], 3)
	}
	ctl, err := mpc.New(mpc.Config{
		Topo: topo, Sats: sats, LifetimeHorizon: 3600, LifetimeStep: 30,
		Coverage: orbit.CoverageParams{MinElevation: geom.Deg2Rad(15)},
	})
	return ctl, len(sats), err
}

// deltaSlotDt is the control slot duration of the delta sweep: a
// multiple of the scenario's LifetimeStep, so consecutive slots sample
// pair visibility at bitwise-identical times and the warm path can skip
// them.
const deltaSlotDt = 30.0

// DeltaCompileSweep measures the incremental compiler and its wire
// footprint (ISSUE 9): it compiles the same window of control slots
// twice on fresh controllers — a full Compile chain and a DeltaCompile
// chain warm-starting each slot from the previous snapshot — verifies
// the two plans are byte-identical slot by slot, and reports the
// warm-slot speedup (slot 0 excluded: the first delta compile has no
// previous snapshot to reuse), the visibility-sample warm-hit ratio,
// and the southbound bytes per slot of delta enforcement (one
// slot-delta batch per changed satellite) versus full per-endpoint
// SetISL pushes.
func DeltaCompileSweep() (*metrics.Table, error) {
	const slots = 12 // the compiled window
	type chain struct {
		snaps      []*mpc.Snapshot
		wall, warm float64 // total and warm-slot (s > 0) compile seconds
		stats      orbit.CacheStats
	}
	nSats := 0
	run := func(delta bool) (*chain, error) {
		ctl, n, err := deltaScenario()
		if err != nil {
			return nil, err
		}
		nSats = n
		c := &chain{}
		var prev *mpc.Snapshot
		for s := 0; s < slots; s++ {
			t := float64(s) * deltaSlotDt
			//lint:tinyleo-ignore the measured wall speedup IS this experiment's result; snapshots are checked for equality separately
			start := time.Now()
			var snap *mpc.Snapshot
			if delta {
				snap = ctl.DeltaCompile(prev, t)
			} else {
				snap = ctl.Compile(t)
			}
			//lint:tinyleo-ignore the measured wall speedup IS this experiment's result; snapshots are checked for equality separately
			wall := time.Since(start).Seconds()
			c.wall += wall
			if s > 0 {
				c.warm += wall
			}
			c.snaps = append(c.snaps, snap)
			prev = snap
		}
		c.stats = ctl.CacheStats()
		return c, nil
	}

	full, err := run(false)
	if err != nil {
		return nil, err
	}
	dc, err := run(true)
	if err != nil {
		return nil, err
	}
	// The delta compiler's correctness contract: warm-starting must never
	// change the compiled plan.
	for s := range full.snaps {
		fl, dl := full.snaps[s].Links(), dc.snaps[s].Links()
		if len(fl) != len(dl) {
			return nil, fmt.Errorf("delta: slot %d diverged: %d vs %d links", s, len(fl), len(dl))
		}
		for i := range fl {
			if fl[i] != dl[i] {
				return nil, fmt.Errorf("delta: slot %d link %d diverged: %v vs %v", s, i, fl[i], dl[i])
			}
		}
	}
	// Wire footprint per warm slot: delta enforcement sends one
	// slot-delta batch per changed satellite; full enforcement sends one
	// SetISL per link endpoint. Both are derived from the same canonical
	// snapshot diff, so the numbers are deterministic.
	var fullBytes, deltaBytes int
	for s := 1; s < len(full.snaps); s++ {
		added, removed := mpc.DiffLinks(full.snaps[s-1], full.snaps[s])
		for _, b := range mpc.BatchBySatellite(added, removed) {
			ops := make([]southbound.SlotDeltaOp, 0, len(b.Add)+len(b.Del))
			for _, p := range b.Del {
				ops = append(ops, southbound.SlotDeltaOp{Peer: p, Up: false})
			}
			for _, p := range b.Add {
				ops = append(ops, southbound.SlotDeltaOp{Peer: p, Up: true})
			}
			for _, op := range ops {
				setISL := &southbound.Message{Type: southbound.MsgSetISL, SatID: uint32(b.Sat), Peer: op.Peer, Up: op.Up}
				fullBytes += setISL.WireSize()
			}
			m := &southbound.Message{Type: southbound.MsgSlotDelta, SatID: uint32(b.Sat), Payload: southbound.EncodeSlotDelta(ops)}
			deltaBytes += m.WireSize()
		}
	}
	const warmSlots = slots - 1

	speedup := 0.0
	if dc.warm > 0 {
		speedup = full.warm / dc.warm
	}
	tab := metrics.NewTable("Delta: incremental MPC compile + enforcement",
		"run", "satellites", "slots", "wall (s)", "warm wall (s)", "speedup (x)",
		"warm hit ratio", "bytes per slot (B)")
	tab.AddRow("full", nSats, slots, fmt.Sprintf("%.3f", full.wall),
		fmt.Sprintf("%.3f", full.warm), fmt.Sprintf("%.2f", 1.0),
		fmt.Sprintf("%.3f", full.stats.WarmHitRatio()), fullBytes/warmSlots)
	tab.AddRow("delta", nSats, slots, fmt.Sprintf("%.3f", dc.wall),
		fmt.Sprintf("%.3f", dc.warm), fmt.Sprintf("%.2f", speedup),
		fmt.Sprintf("%.3f", dc.stats.WarmHitRatio()), deltaBytes/warmSlots)
	return tab, nil
}
