package mpc

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/intent"
	"repro/internal/orbit"
)

// denseTestbed builds a Walker constellation dense enough that a small
// equatorial chain intent always has satellites overhead, plus the chain
// intent itself.
func denseTestbed(t *testing.T) (*intent.Topology, []orbit.Elements, []int) {
	t.Helper()
	g := geo.MustGrid(10)
	// High-altitude dense Walker with a 15° min-elevation footprint so every
	// 10° test cell reliably has several satellites overhead.
	sats := baseline.WalkerConfig{
		InclinationDeg: 53, AltitudeKm: 1200, Planes: 24, SatsPerPlane: 24, PhasingF: 1,
	}.Satellites()
	topo := intent.NewTopology(g)
	var cells []int
	for i := 0; i < 4; i++ {
		id := g.CellOf(geom.LatLon{Lat: 5, Lon: float64(-15 + i*10)})
		topo.AddCell(id, 3)
		cells = append(cells, id)
	}
	for i := 1; i < len(cells); i++ {
		topo.Connect(cells[i-1], cells[i], 1)
	}
	return topo, sats, cells
}

func newController(t *testing.T) (*Controller, []int) {
	t.Helper()
	topo, sats, cells := denseTestbed(t)
	c, err := New(Config{
		Topo: topo, Sats: sats, LifetimeHorizon: 600, LifetimeStep: 60,
		Coverage: orbit.CoverageParams{MinElevation: geom.Deg2Rad(15)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, cells
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil topology accepted")
	}
	topo, _, _ := denseTestbed(t)
	if _, err := New(Config{Topo: topo}); err == nil {
		t.Error("empty satellite list accepted")
	}
}

// TestNewRejectsBadLifetimeWindow: a NaN or infinite lifetime horizon or
// step is an error, not a controller that compiles no inter-links or a
// window that never stops growing, and so is a window whose sample count
// the τ codes cannot hold; the largest window that fits is accepted.
func TestNewRejectsBadLifetimeWindow(t *testing.T) {
	topo, sats, _ := denseTestbed(t)
	nan, inf := math.NaN(), math.Inf(1)
	for _, w := range [][2]float64{
		{nan, 30}, {inf, 30}, {-inf, 30},
		{600, nan}, {600, inf}, {600, -inf},
		{1e9, 1e-3},
		{orbit.MaxWindowSamples, 1},
	} {
		if _, err := New(Config{Topo: topo, Sats: sats, LifetimeHorizon: w[0], LifetimeStep: w[1]}); err == nil {
			t.Errorf("horizon %v, step %v accepted", w[0], w[1])
		}
	}
	// Offsets 0, 1, …, MaxWindowSamples-1: exactly MaxWindowSamples samples.
	c, err := New(Config{Topo: topo, Sats: sats, LifetimeHorizon: orbit.MaxWindowSamples - 1, LifetimeStep: 1})
	if err != nil {
		t.Fatalf("the largest window that fits was refused: %v", err)
	}
	if n, _ := orbit.WindowSamples(c.cfg.LifetimeHorizon, c.cfg.LifetimeStep); n != orbit.MaxWindowSamples {
		t.Errorf("window of %d samples, want %d", n, orbit.MaxWindowSamples)
	}
	// ≤ 0 still takes the defaults.
	if c, err := New(Config{Topo: topo, Sats: sats, LifetimeHorizon: -1}); err != nil {
		t.Errorf("a negative horizon was refused: %v", err)
	} else if c.cfg.LifetimeHorizon != 1800 || c.cfg.LifetimeStep != 30 {
		t.Errorf("a negative horizon and a zero step gave %v and %v, want the defaults", c.cfg.LifetimeHorizon, c.cfg.LifetimeStep)
	}
}

func TestCompileProducesLinks(t *testing.T) {
	c, cells := newController(t)
	snap := c.Compile(0)
	if len(snap.CellSats) == 0 {
		t.Fatal("no satellites homed to cells")
	}
	if len(snap.InterLinks) == 0 {
		t.Fatal("no inter-cell ISLs compiled")
	}
	// Every intent edge should be served (dense constellation).
	ratio := c.EnforcementRatio(snap)
	if ratio < 0.99 {
		t.Errorf("enforcement ratio = %v (deficits %v)", ratio, snap.Deficits)
	}
	// Each inter-link connects satellites homed to adjacent intent cells.
	for _, l := range snap.InterLinks {
		served := false
		for i := 1; i < len(cells); i++ {
			if c.linkServesEdge(snap, l, [2]int{min(cells[i-1], cells[i]), max(cells[i-1], cells[i])}) {
				served = true
			}
		}
		if !served {
			t.Errorf("link %v serves no intent edge", l)
		}
	}
}

// terminalsPerSat is the laser terminal budget the compile is built
// around: one inter-cell gateway link plus two intra-cell ring links.
const terminalsPerSat = 1 + 2

func TestCompileRespectsTerminalBudget(t *testing.T) {
	c, _ := newController(t)
	snap := c.Compile(0)
	degree := map[int]int{}
	for _, l := range snap.Links() {
		degree[l[0]]++
		degree[l[1]]++
	}
	for sat, d := range degree {
		if d > terminalsPerSat {
			t.Errorf("satellite %d uses %d ISL terminals (max %d)", sat, d, terminalsPerSat)
		}
	}
}

func TestCompileDeterministic(t *testing.T) {
	c, _ := newController(t)
	a := c.Compile(0)
	b := c.Compile(0)
	al, bl := a.Links(), b.Links()
	if len(al) != len(bl) {
		t.Fatalf("link counts differ: %d vs %d", len(al), len(bl))
	}
	for i := range al {
		if al[i] != bl[i] {
			t.Fatalf("links differ at %d: %v vs %v", i, al[i], bl[i])
		}
	}
}

func TestIntentStableWhileTopologyEvolves(t *testing.T) {
	// The paper's headline property (Figure 16): the geographic intent is
	// fixed while the compiled satellite topology changes over time.
	c, _ := newController(t)
	prev := c.Compile(0)
	changedAtLeastOnce := false
	for _, tt := range []float64{300, 600, 900} {
		cur := c.Compile(tt)
		if r := c.EnforcementRatio(cur); r < 0.95 {
			t.Errorf("t=%v: enforcement %v", tt, r)
		}
		added, removed := DiffLinks(prev, cur)
		if len(added)+len(removed) > 0 {
			changedAtLeastOnce = true
		}
		prev = cur
	}
	if !changedAtLeastOnce {
		t.Error("satellite topology never changed over 15 minutes of LEO motion; suspicious")
	}
}

func TestLifetimePreferenceFavorsStableLinks(t *testing.T) {
	// τ must be positive for an adjacent co-orbital pair and zero for an
	// occluded pair.
	c, _ := newController(t)
	if tau := c.geo.Lifetime(0, 1, 0); tau <= 0 {
		t.Errorf("co-orbital neighbors lifetime = %v", tau)
	}
	n := len(c.cfg.Sats)
	if tau := c.geo.Lifetime(0, n/2, 0); tau != 0 {
		// Opposite side of the constellation: should be invisible.
		t.Logf("lifetime to far satellite = %v (may be visible depending on geometry)", tau)
	}
}

func TestMakeLinkNormalizes(t *testing.T) {
	if MakeLink(5, 2) != (Link{2, 5}) {
		t.Error("MakeLink does not sort")
	}
	if MakeLink(2, 5) != MakeLink(5, 2) {
		t.Error("MakeLink not symmetric")
	}
}

func TestDiffLinks(t *testing.T) {
	a := &Snapshot{InterLinks: []Link{{1, 2}, {3, 4}}}
	b := &Snapshot{InterLinks: []Link{{3, 4}, {5, 6}}}
	added, removed := DiffLinks(a, b)
	if len(added) != 1 || added[0] != (Link{5, 6}) {
		t.Errorf("added = %v", added)
	}
	if len(removed) != 1 || removed[0] != (Link{1, 2}) {
		t.Errorf("removed = %v", removed)
	}
	// Nil previous snapshot: everything is new.
	added, removed = DiffLinks(nil, b)
	if len(added) != 2 || removed != nil {
		t.Errorf("nil prev: %v %v", added, removed)
	}
}

func TestRepairReplacesFailedLink(t *testing.T) {
	c, _ := newController(t)
	snap := c.Compile(0)
	if len(snap.InterLinks) == 0 {
		t.Fatal("need links to fail")
	}
	victim := snap.InterLinks[0]
	before := c.EnforcementRatio(snap)
	repaired, stats := c.Repair(snap, []Link{victim}, nil, 83*time.Millisecond)
	if stats.Messages == 0 {
		t.Error("repair sent no messages")
	}
	if stats.Total() < 83*time.Millisecond {
		t.Errorf("repair total %v below the RTT floor", stats.Total())
	}
	// The victim link must be gone.
	for _, l := range repaired.InterLinks {
		if l == victim {
			t.Error("failed link still present")
		}
	}
	after := c.EnforcementRatio(repaired)
	if after < before-1e-9 && stats.Unrepaired > 0 {
		t.Logf("unrepaired: %d (acceptable if no spare satellites)", stats.Unrepaired)
	} else if after < before-1e-9 {
		t.Errorf("enforcement dropped %v -> %v without unrepaired report", before, after)
	}
}

func TestRepairSurvivesSatelliteFailure(t *testing.T) {
	c, _ := newController(t)
	snap := c.Compile(0)
	if len(snap.InterLinks) == 0 {
		t.Fatal("need links")
	}
	deadSat := snap.InterLinks[0][0]
	repaired, _ := c.Repair(snap, nil, []int{deadSat}, 80*time.Millisecond)
	for _, l := range repaired.Links() {
		if l[0] == deadSat || l[1] == deadSat {
			t.Errorf("dead satellite %d still linked via %v", deadSat, l)
		}
	}
	for _, sats := range repaired.CellSats {
		for _, s := range sats {
			if s == deadSat {
				t.Error("dead satellite still homed to a cell")
			}
		}
	}
}

// TestRepairListShapes: Repair builds its lists as a compile does, each a
// capacity-capped view, so appending to one cannot overwrite another, and
// leaves its input alone; a gateway list that empties stays in the map as
// nil, and a cell left with no satellite drops out of CellSats. With every
// homed satellite dead nothing can be replaced: every list empties.
func TestRepairListShapes(t *testing.T) {
	c, _ := newController(t)
	snap := c.Compile(0)
	before := fmt.Sprintf("%#v", *snap)
	victim := snap.InterLinks[0]
	repaired, _ := c.Repair(snap, []Link{victim}, nil, 0)
	for cell, sats := range repaired.CellSats {
		if len(sats) == 0 || cap(sats) != len(sats) {
			t.Errorf("cell %d lists %v at capacity %d", cell, sats, cap(sats))
		}
	}
	for edge, gws := range repaired.Gateways {
		if len(gws) == 0 && gws != nil {
			t.Errorf("gateway list %v is empty but not nil", edge)
		}
	}
	var dead []int
	for _, sats := range snap.CellSats {
		dead = append(dead, sats...)
	}
	gone, _ := c.Repair(snap, nil, dead, 0)
	want := &Snapshot{Time: snap.Time, CellSats: map[int][]int{}, Gateways: map[[2]int][]int{}, Deficits: snap.Deficits}
	for edge := range snap.Gateways {
		want.Gateways[edge] = nil
	}
	if !reflect.DeepEqual(gone, want) {
		t.Errorf("with every satellite dead, Repair gives %v, want %v", gone, want)
	}
	if after := fmt.Sprintf("%#v", *snap); after != before {
		t.Errorf("Repair changed its input snapshot:\nbefore %s\nafter  %s", before, after)
	}
}

func TestRepairTimeDominatedByRTT(t *testing.T) {
	// Figure 17d: 83.5 of 83.8 ms is RTT; compute is sub-millisecond at
	// this scale.
	c, _ := newController(t)
	snap := c.Compile(0)
	if len(snap.InterLinks) == 0 {
		t.Fatal("need links")
	}
	_, stats := c.Repair(snap, []Link{snap.InterLinks[0]}, nil, 83*time.Millisecond)
	if stats.ComputeTime > 50*time.Millisecond {
		t.Errorf("compute time %v too large", stats.ComputeTime)
	}
	if frac := float64(stats.ReportRTT+stats.InstructRTT) / float64(stats.Total()); frac < 0.5 {
		t.Errorf("RTT fraction = %v; repair should be RTT-dominated", frac)
	}
}

func TestRingConnectsGateways(t *testing.T) {
	c, cells := newController(t)
	snap := c.Compile(0)
	// For the middle cell (2 edges), its gateways must be ring-connected if
	// there are ≥ 2 of them.
	u := cells[1]
	gws := map[int]bool{}
	for _, v := range c.cfg.Topo.Neighbors(u) {
		for _, g := range snap.Gateways[[2]int{u, v}] {
			gws[g] = true
		}
	}
	if len(gws) < 2 {
		t.Skip("fewer than 2 gateways; ring not required")
	}
	ringDegree := map[int]int{}
	for _, l := range snap.RingLinks {
		if gws[l[0]] && gws[l[1]] {
			ringDegree[l[0]]++
			ringDegree[l[1]]++
		}
	}
	for g := range gws {
		if ringDegree[g] == 0 {
			t.Errorf("gateway %d of cell %d not on the ring", g, u)
		}
	}
}

// The ring builder leaves a failed pair open: the two ends of a failed
// inter-cell link can come back as longitude neighbours on one cell's ring,
// and a repair must not instruct the link it was told is gone.
func TestRingLinksLeaveAFailedPairOpen(t *testing.T) {
	c, cells := newController(t)
	snap := c.Compile(0)
	u := cells[1]
	if len(snap.CellSats[u]) < 4 {
		t.Fatalf("cell %d has %d satellites overhead, need 4", u, len(snap.CellSats[u]))
	}
	nb := c.cfg.Topo.Neighbors(u)
	gateways := map[[2]int][]int{
		{u, nb[0]}: snap.CellSats[u][0:2],
		{u, nb[1]}: snap.CellSats[u][2:4],
	}
	sg := c.geo.Slot(0)
	ring := c.ringLinks(sg, gateways, nil, &linkScratch{})
	if len(ring) != 4 {
		t.Fatalf("ring over 4 gateways has %d links: %v", len(ring), ring)
	}
	for i, gone := range ring {
		want := append(append([]Link(nil), ring[:i]...), ring[i+1:]...)
		got := c.ringLinks(sg, gateways, map[Link]bool{gone: true}, &linkScratch{})
		if len(got) != len(want) {
			t.Fatalf("with %v failed the ring is %v, want %v", gone, got, want)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("with %v failed the ring is %v, want %v", gone, got, want)
			}
		}
	}
}
