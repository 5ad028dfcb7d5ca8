package chaos

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/baseline"
	"repro/internal/dataplane"
	"repro/internal/geo"
	"repro/internal/intent"
	"repro/internal/mpc"
	"repro/internal/orbit"
)

// TestbedConfig sizes the testbed. Zero values take defaults chosen so a
// campaign runs in a few seconds.
type TestbedConfig struct {
	// Sats is the Walker constellation size (rounded down to a square).
	Sats int
	// CellDeg is the geographic cell size in degrees.
	CellDeg float64
	// Slots / SlotSeconds bound the supply horizon deriving the intent.
	Slots       int
	SlotSeconds float64
	// ISLRateBps / QueueLimit size the emulated links. The defaults are
	// deliberately narrow (2 Mbps, 128-packet queues) so demand surges
	// congest queues instead of disappearing into the paper's 200 Gbps.
	ISLRateBps float64
	QueueLimit int
}

func (c *TestbedConfig) fillDefaults() {
	if c.Sats <= 0 {
		c.Sats = 256
	}
	if c.CellDeg <= 0 {
		c.CellDeg = 10
	}
	if c.Slots <= 0 {
		c.Slots = 8
	}
	if c.SlotSeconds <= 0 {
		c.SlotSeconds = 300
	}
	if c.ISLRateBps <= 0 {
		c.ISLRateBps = 2e6
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 128
	}
}

// Testbed is the one system under test of this repository: a constellation,
// its mesh intent, the orbital MPC, the current snapshot, and the emulated
// data plane that follows it. Advance moves both to a later time by one
// step, the rule BuildNetwork builds by. The campaign engine, the control-
// and data-plane figures of internal/experiments and the bench/ ledger all
// run on it.
type Testbed struct {
	Cfg  TestbedConfig
	Sats []orbit.Elements
	Topo *intent.Topology
	Ctl  *mpc.Controller
	// Snap is the snapshot Net was last brought to: slot 0's at build, then
	// each Advance's or repair's.
	Snap *mpc.Snapshot
	Net  *dataplane.Network
	// Cells are the intent cells with at least one homed satellite at
	// build time, ascending; later snapshots do not change them.
	Cells []int
}

// NewTestbed builds the system under test. At a few hundred satellites a
// slimmed multi-shell layout guarantees no cell a minimum satellite count,
// so the constellation is a dense single-shell Walker at 1,200 km whose wide
// footprints make §4.2's geographic invariant hold; the mesh intent is what
// that constellation guarantees over the supply horizon, compiled at slot 0
// and materialized by BuildNetwork.
func NewTestbed(cfg TestbedConfig) (*Testbed, error) {
	cfg.fillDefaults()
	// The controller's lifetime window, checked before the supply is built
	// over the same slots.
	horizon, step := 2*cfg.SlotSeconds, cfg.SlotSeconds/5
	if _, err := orbit.WindowSamples(horizon, step); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	side := max(2, int(math.Sqrt(float64(cfg.Sats))))
	sats := baseline.WalkerConfig{
		InclinationDeg: 53, AltitudeKm: 1200,
		Planes: side, SatsPerPlane: side, PhasingF: 1,
	}.Satellites()

	g := geo.MustGrid(cfg.CellDeg)
	// Half the default minimum elevation: the widened footprint is what lets
	// so few satellites guarantee cells.
	cov := orbit.CoverageParams{MinElevation: orbit.DefaultCoverageParams.MinElevation / 2}
	supply := baseline.Supply(baseline.SupplyConfig{
		Grid: g, Slots: cfg.Slots, SlotSeconds: cfg.SlotSeconds, SubSamples: 1,
		Coverage: cov, CountSatellites: true,
	}, sats)
	guaranteed := intent.GuaranteedFromSupply(g, cfg.Slots, supply)

	// Grow a connected intent region from the best-guaranteed cell. A K-cell
	// mesh has ≈2K edges needing ≈4K gateway satellites; the cap keeps that
	// well under the constellation's budget of one gateway terminal each.
	qualified := map[int]int{}
	seed, bestG := -1, 0
	for u := 0; u < g.NumCells(); u++ {
		if n := guaranteed[u]; n >= 3 {
			qualified[u] = n
			if n > bestG {
				seed, bestG = u, n
			}
		}
	}
	if seed < 0 {
		return nil, fmt.Errorf("chaos: no cells qualify for the testbed intent")
	}
	maxCells := max(6, len(sats)/32)
	region := map[int]int{seed: qualified[seed]}
	frontier := []int{seed}
	for len(frontier) > 0 && len(region) < maxCells {
		u := frontier[0]
		frontier = frontier[1:]
		for _, v := range g.Neighbors4(u) {
			if _, ok := region[v]; ok {
				continue
			}
			if n, ok := qualified[v]; ok {
				region[v] = n
				frontier = append(frontier, v)
				if len(region) >= maxCells {
					break
				}
			}
		}
	}
	topo := intent.MeshIntent(g, region, 1, 1)
	if len(topo.Cells()) < 2 || len(topo.Edges) == 0 {
		return nil, fmt.Errorf("chaos: testbed intent region degenerate (%d cells)", len(topo.Cells()))
	}

	ctl, err := mpc.New(mpc.Config{
		Topo: topo, Sats: sats, Coverage: cov,
		LifetimeHorizon: horizon, LifetimeStep: step,
	})
	if err != nil {
		return nil, err
	}
	snap := ctl.Compile(0)

	tb := &Testbed{Cfg: cfg, Sats: sats, Topo: topo, Ctl: ctl, Snap: snap}
	tb.Net = BuildNetwork(snap, sats, cfg.ISLRateBps, cfg.QueueLimit)
	for cell, members := range snap.CellSats {
		if len(members) > 0 {
			tb.Cells = append(tb.Cells, cell)
		}
	}
	sort.Ints(tb.Cells)
	if len(tb.Cells) < 2 {
		return nil, fmt.Errorf("chaos: testbed has %d populated cells", len(tb.Cells))
	}
	return tb, nil
}

// BuildNetwork is the one snapshot→network builder: it materializes a
// compiled snapshot as an emulated data plane of gateway satellites in
// their home cells (non-gateway satellites hold no ISL and are omitted),
// ISLs with the speed-of-light delay at the snapshot's time — inter-cell
// links first, then ring links, each in snapshot order, which is the
// creation order seeded callers index into — and the per-cell gateway
// rings. A rate or queue limit ≤ 0 keeps dataplane.NewNetwork's default.
func BuildNetwork(snap *mpc.Snapshot, sats []orbit.Elements, rateBps float64, queueLimit int) *dataplane.Network {
	n := dataplane.NewNetwork()
	if rateBps > 0 {
		n.ISLRateBps = rateBps
	}
	if queueLimit > 0 {
		n.QueueLimit = queueLimit
	}
	step(n, sats, snap, snap.Links(), nil, nil)
	return n
}

// Advance moves the testbed to time t the way the operator's slot does:
// DeltaCompile from the current snapshot, its link diff, and that diff
// applied with every endpoint enforced. It returns the diff.
func (tb *Testbed) Advance(t float64) (added, removed []mpc.Link) {
	snap := tb.Ctl.DeltaCompile(tb.Snap, t)
	added, removed = mpc.DiffLinks(tb.Snap, snap)
	tb.apply(snap, added, removed, nil)
	return added, removed
}

// apply brings the live network to snap the incremental way, link
// statistics and in-flight packets intact, and makes snap the testbed's
// current snapshot. With every change enforced, the live network is
// BuildNetwork(snap) up to links that are down.
func (tb *Testbed) apply(snap *mpc.Snapshot, added, removed []mpc.Link, acked map[int]bool) {
	step(tb.Net, tb.Sats, snap, added, removed, acked)
	tb.Snap = snap
}

// step is the one rule by which a network follows a snapshot: the gateways
// snap introduces are placed, the enforced removals lowered, every up link
// given its speed-of-light delay at snap.Time, the enforced additions
// that are missing or down raised with theirs by EnsureLink (which gives a
// revived link the new delay), and the rings reinstalled.
//
// The enforcement rule, written once: acked holds every satellite that was
// sent its share of the diff, and whether it acknowledged; a link change
// reaches the network when at least one of its endpoints was sent to and
// every one that was has acknowledged (the others have no live agent). A
// nil acked enforces every change.
func step(n *dataplane.Network, sats []orbit.Elements, snap *mpc.Snapshot, added, removed []mpc.Link, acked map[int]bool) {
	enforced := func(l mpc.Link) bool {
		ok0, sent0 := acked[l[0]]
		ok1, sent1 := acked[l[1]]
		return acked == nil || (sent0 || sent1) && ok0 == sent0 && ok1 == sent1
	}
	placeGateways(n, snap)
	for _, l := range removed {
		if nl := n.Link(l[0], l[1]); nl != nil && nl.IsUp() && enforced(l) {
			nl.Down()
		}
	}
	for _, nl := range n.Links() {
		if nl.IsUp() {
			nl.Delay = linkDelay(sats, mpc.Link{nl.A, nl.B}, snap.Time)
		}
	}
	for _, l := range added {
		if n.Sats[l[0]] == nil || n.Sats[l[1]] == nil || !enforced(l) {
			continue
		}
		if nl := n.Link(l[0], l[1]); nl == nil || !nl.IsUp() {
			n.EnsureLink(l[0], l[1], linkDelay(sats, l, snap.Time))
		}
	}
	installRings(n, snap)
}

// placeGateways is the home-cell rule, written once: a satellite's
// forwarding identity is the cell whose gateway duty it holds, and where
// repair double-booked it under several edge keys, the first key in sorted
// order decides (iterating the map here made the network differ run to
// run). Gateways n lacks are added; one whose duty moved is re-homed.
func placeGateways(n *dataplane.Network, snap *mpc.Snapshot) {
	placed := map[int]bool{}
	for _, key := range gatewayKeys(snap) {
		for _, s := range snap.Gateways[key] {
			if placed[s] {
				continue
			}
			placed[s] = true
			if sat := n.Sats[s]; sat != nil {
				sat.Cell = key[0]
			} else {
				n.AddSatellite(s, key[0])
			}
		}
	}
}

// gatewayKeys returns the snapshot's directed edge keys {home cell,
// neighbour cell} in lexicographic order.
func gatewayKeys(snap *mpc.Snapshot) [][2]int {
	keys := make([][2]int, 0, len(snap.Gateways))
	for key := range snap.Gateways {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}

// installRings is the ring rule, written once: every ring pointer is
// cleared, then each home cell's ring is walked out of snap.RingLinks and
// installed.
func installRings(n *dataplane.Network, snap *mpc.Snapshot) {
	for _, s := range n.Sats {
		s.RingNext = -1
	}
	keys := gatewayKeys(snap)
	for i, key := range keys {
		if i == 0 || keys[i-1][0] != key[0] {
			n.SetRing(ringOrder(n, snap, key[0]))
		}
	}
}

// linkDelay is the speed-of-light one-way delay of an ISL at t.
func linkDelay(sats []orbit.Elements, l mpc.Link, t float64) float64 {
	return orbit.PropagationDelay(sats[l[0]].PositionECI(t), sats[l[1]].PositionECI(t))
}

// ringOrder reconstructs the cyclic order of a cell's gateway ring from
// the snapshot's ring links, using the network's home-cell assignment for
// membership: from the lowest-numbered member, towards its first neighbour
// in ring-link order.
func ringOrder(n *dataplane.Network, snap *mpc.Snapshot, cell int) []int {
	inCell := map[int]bool{}
	for id, s := range n.Sats {
		if s.Cell == cell {
			inCell[id] = true
		}
	}
	adj := map[int][]int{}
	for _, l := range snap.RingLinks {
		if inCell[l[0]] && inCell[l[1]] {
			adj[l[0]] = append(adj[l[0]], l[1])
			adj[l[1]] = append(adj[l[1]], l[0])
		}
	}
	if len(adj) < 2 {
		return nil
	}
	start := -1
	for s := range adj {
		if start == -1 || s < start {
			start = s
		}
	}
	order := []int{start}
	prev, cur := -1, start
	for {
		next := -1
		for _, nb := range adj[cur] {
			if nb != prev {
				next = nb
				break
			}
		}
		if next == -1 || next == start {
			break
		}
		order = append(order, next)
		prev, cur = cur, next
		if len(order) > len(adj) {
			break // safety against malformed rings
		}
	}
	return order
}

// GatewayOf returns an injection satellite for a cell under the testbed's
// snapshot: one of its gateway ring members (only gateways hold ISLs).
func (tb *Testbed) GatewayOf(cell int) (int, bool) {
	for _, v := range tb.Topo.Neighbors(cell) {
		if g := tb.Snap.Gateways[[2]int{cell, v}]; len(g) > 0 {
			return g[0], true
		}
	}
	return -1, false
}

// Probe injects a geo-segment packet at gw along the cell route, advances
// the emulator by 5 s and returns the packet with its one-way delay, or nil
// if it was not delivered. The caller's delivery hook is restored, and the
// sentinel flow ID keeps a late-buffered probe out of any per-flow
// accounting installed afterwards. Which routes to probe, and which of the
// delivering ones to keep, is the caller's policy.
func (tb *Testbed) Probe(gw int, route []int) (*dataplane.Packet, float64) {
	p, err := dataplane.NewGeoPacket(uint32(gw), route, ^uint32(0), 0, nil)
	if err != nil {
		return nil, 0
	}
	var got *dataplane.Packet
	var delay float64
	save := tb.Net.OnDeliver
	tb.Net.OnDeliver = func(_ *dataplane.Satellite, q *dataplane.Packet) {
		got, delay = q, tb.Net.Sim.Now()-q.SentAt
	}
	tb.Net.Inject(gw, p)
	tb.Net.Sim.Run(tb.Net.Sim.Now() + 5)
	tb.Net.OnDeliver = save
	return got, delay
}
