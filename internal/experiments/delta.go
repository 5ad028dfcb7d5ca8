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
	"repro/internal/obs"
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
// and the southbound payload bytes per warm slot of enforcing the plan
// (one slot-delta batch per changed satellite), as the DeltaEnforcer
// that framed them counted them.
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
	deltaBytes, err := enforcedBytes(dc.snaps)
	if err != nil {
		return nil, err
	}
	const warmSlots = slots - 1

	speedup := 0.0
	if dc.warm > 0 {
		speedup = full.warm / dc.warm
	}
	tab := metrics.NewTable("Delta: incremental MPC compile + enforcement",
		"run", "satellites", "slots", "wall (s)", "warm wall (s)", "speedup (x)",
		"warm hit ratio", "enforced bytes per slot (B)")
	tab.AddRow("full", nSats, slots, fmt.Sprintf("%.3f", full.wall),
		fmt.Sprintf("%.3f", full.warm), fmt.Sprintf("%.2f", 1.0),
		fmt.Sprintf("%.3f", full.stats.WarmHitRatio()), "-")
	tab.AddRow("delta", nSats, slots, fmt.Sprintf("%.3f", dc.wall),
		fmt.Sprintf("%.3f", dc.warm), fmt.Sprintf("%.2f", speedup),
		fmt.Sprintf("%.3f", dc.stats.WarmHitRatio()), deltaBytes/warmSlots)
	return tab, nil
}

// enforcedBytes enforces a chain of slot snapshots the way tinyleo-ctl
// does, over loopback TCP to one agent per planned satellite, and returns
// the payload bytes the enforcer counted after slot 0 (whose pushes are all
// first-contact snapshots). The diff is canonical, so it is deterministic.
func enforcedBytes(snaps []*mpc.Snapshot) (int64, error) {
	ctl, err := southbound.ListenController("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ctl.Close()
	enf := southbound.NewDeltaEnforcer(ctl)
	sent := ctl.Metrics().Counter(southbound.MetricDeltaBytes)
	var prev *mpc.Snapshot
	var slot0 int64
	for s, snap := range snaps {
		added, removed := mpc.DiffLinks(prev, snap)
		prev = snap
		for _, b := range mpc.BatchBySatellite(added, removed) {
			if ctl.Registrations(uint32(b.Sat)) == 0 {
				a, err := southbound.DialAgent(ctl.Addr(), uint32(b.Sat), 5*time.Second)
				if err != nil {
					return 0, err
				}
				defer a.Close()
			}
			if err := enf.Push(uint32(b.Sat), b.Add, b.Del, time.Time{}, obs.SpanContext{}); err != nil {
				return 0, err
			}
		}
		if s == 0 {
			slot0 = sent.Value()
		}
	}
	return sent.Value() - slot0, nil
}
