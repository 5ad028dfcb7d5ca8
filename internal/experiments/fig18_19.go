package experiments

import (
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/chaos"
	"repro/internal/dataplane"
	"repro/internal/geom"
	"repro/internal/intent"
	"repro/internal/metrics"
	"repro/internal/mpc"
	"repro/internal/orbit"
	"repro/internal/tssdn"
)

// findWorkingRoute returns (srcCell, dstCell, route) for the longest
// intent route whose packets actually deliver in the emulated network.
func findWorkingRoute(tb *chaos.Testbed, minHops int) (int, int, intent.Route, bool) {
	type candidate struct {
		src, dst int
		r        intent.Route
	}
	var best candidate
	found := false
	for _, src := range tb.Cells {
		for _, dst := range tb.Cells {
			if src >= dst {
				continue
			}
			r, err := tb.Topo.ShortestPathRoute(src, dst)
			if err != nil || len(r.Cells) < minHops+1 {
				continue
			}
			if !found || len(r.Cells) > len(best.r.Cells) {
				if p, _ := sendOnce(tb, src, r); p != nil {
					best = candidate{src, dst, r}
					found = true
				}
			}
		}
	}
	return best.src, best.dst, best.r, found
}

// Figure18 enforces three routing policies and verifies delivery.
func Figure18(scale Scale) (*metrics.Table, error) {
	tb, err := newTestbed(scale)
	if err != nil {
		return nil, err
	}
	src, dst, shortest, ok := findWorkingRoute(tb, 2)
	if !ok {
		return nil, fmt.Errorf("experiments: no deliverable route in testbed")
	}
	tab := metrics.NewTable("Figure 18: enforcement of routing policies",
		"policy", "route cells", "delivered", "sat hops", "delay (ms)", "stretch")

	// A policy that yields no route keeps its row, with the reason.
	type policyRoute struct {
		name string
		r    intent.Route
		err  error
	}
	routes := []policyRoute{{name: "shortest path", r: shortest}}
	oce, err := tb.Topo.OceanicOffloadRoute(src, dst, 4)
	routes = append(routes, policyRoute{"oceanic offloading", oce, err})
	if multi, err := tb.Topo.MultipathRoutes(src, dst, 2); err != nil {
		routes = append(routes, policyRoute{name: "multipath", err: err})
	} else {
		for i, r := range multi {
			routes = append(routes, policyRoute{name: fmt.Sprintf("multipath #%d", i+1), r: r})
		}
	}
	if mid := len(shortest.Cells) / 2; len(shortest.Cells) > 2 {
		avoid := map[int]bool{shortest.Cells[mid]: true}
		det, err := tb.Topo.DetourRoute(src, dst, avoid)
		routes = append(routes, policyRoute{"risk detour", det, err})
	}

	for _, pr := range routes {
		if pr.err != nil {
			tab.AddRow(pr.name, "-", fmt.Sprintf("no route: %v", pr.err), "-", "-", "-")
			continue
		}
		if err := tb.Topo.VerifyRoute(pr.r); err != nil {
			return nil, fmt.Errorf("experiments: %s route invalid: %w", pr.name, err)
		}
		// §4.3's delivery guarantee holds when every hop of the (verified,
		// loop-free) route is enforced with ≥1 ISL; at small scale some
		// mesh edges may carry a gateway deficit, so flag those instead of
		// sending into a known-unenforced hop (the control plane would
		// repair them before installing the route).
		if !routeEnforced(tb, pr.r) {
			tab.AddRow(pr.name, len(pr.r.Cells), "skipped (unenforced hop)", "-", "-", "-")
			continue
		}
		p, delay := sendOnce(tb, src, pr.r)
		if p == nil {
			tab.AddRow(pr.name, len(pr.r.Cells), false, "-", "-", "-")
			continue
		}
		tab.AddRow(pr.name, len(pr.r.Cells), true, len(p.HopTrace)-1,
			fmt.Sprintf("%.2f", delay*1e3), fmt.Sprintf("%.3f", stretch(tb, p, delay)))
	}
	return tab, nil
}

// stretch is a delivered packet's one-way delay over the propagation delay
// of the shortest path through every compiled ISL between the satellite it
// entered at and the one that delivered it (1 when they are the same).
func stretch(tb *chaos.Testbed, p *dataplane.Packet, delay float64) float64 {
	from, to := p.HopTrace[0], p.HopTrace[len(p.HopTrace)-1]
	best, _, ok := PathDelayOverLinks(tb.Sats, tb.Snap.Links(), from, to, tb.Snap.Time)
	if !ok || best == 0 {
		return 1
	}
	return delay / best
}

// routeEnforced reports whether every hop of the route has gateway
// satellites on both sides in the compiled snapshot.
func routeEnforced(tb *chaos.Testbed, r intent.Route) bool {
	for i := 1; i < len(r.Cells); i++ {
		u, v := r.Cells[i-1], r.Cells[i]
		if len(tb.Snap.Gateways[[2]int{u, v}]) == 0 || len(tb.Snap.Gateways[[2]int{v, u}]) == 0 {
			return false
		}
	}
	return true
}

// sendOnce probes r from srcCell's gateway (Testbed.Probe): the delivered
// packet and its one-way delay, or nil.
func sendOnce(tb *chaos.Testbed, srcCell int, r intent.Route) (*dataplane.Packet, float64) {
	gw, ok := tb.GatewayOf(srcCell)
	if !ok {
		return nil, 0
	}
	return tb.Probe(gw, r.Cells)
}

// Figure19a compares routing stretch: TinyLEO's sparse network versus a
// Starlink-like constellation with (i) the standard 3-ISL grid topology
// and (ii) an MPC/proximity topology. Stretch is TinyLEO's propagation
// delay divided by the Starlink+MPC delay for the same O-D endpoints.
func Figure19a(scale Scale, backbone *SparsifyOutcome) (*metrics.Table, error) {
	tinySats := RealizeConstellation(backbone.Lib, backbone.TinyLEO)
	if len(tinySats) < 4 {
		return nil, fmt.Errorf("experiments: TinyLEO constellation too small (%d)", len(tinySats))
	}
	// TinyLEO topology: proximity topology over the sparse constellation
	// (the orbital-MPC compiled topology's physical layer). The greedy
	// nearest-neighbor motif can leave a *sparse* constellation partitioned
	// where a global planner would not, so stitch components with the
	// shortest visible inter-component links — the cross-orbit ISLs the
	// paper credits for TinyLEO's short paths (§6.3).
	tinyCtl, err := tssdn.New(tssdn.Config{Sats: tinySats})
	if err != nil {
		return nil, err
	}
	tinyLinks := connectComponents(tinySats, toMPCLinks(tinyCtl.Topology(0)), 0)

	slSats, slGrid := StarlinkGridTopology(scaledShells(scale))
	slCtl, err := tssdn.New(tssdn.Config{Sats: slSats})
	if err != nil {
		return nil, err
	}
	slMPC := toMPCLinks(slCtl.Topology(0))

	// O-D endpoints: backbone region anchor points.
	var anchors []geom.LatLon
	for _, r := range backboneRegionsSample() {
		anchors = append(anchors, r)
	}
	var stretches, tinyHops, gridHops []float64
	pairsTried, pairsReached := 0, 0
	for i := 0; i < len(anchors); i++ {
		for j := i + 1; j < len(anchors); j++ {
			pairsTried++
			ts, td := nearestSat(tinySats, anchors[i], 0), nearestSat(tinySats, anchors[j], 0)
			ss, sd := nearestSat(slSats, anchors[i], 0), nearestSat(slSats, anchors[j], 0)
			tDelay, tHop, ok1 := PathDelayOverLinks(tinySats, tinyLinks, ts, td, 0)
			mDelay, _, ok2 := PathDelayOverLinks(slSats, slMPC, ss, sd, 0)
			gDelay, gHop, ok3 := PathDelayOverLinks(slSats, slGrid, ss, sd, 0)
			if !ok1 || !ok2 {
				continue
			}
			pairsReached++
			stretches = append(stretches, tDelay/mDelay)
			tinyHops = append(tinyHops, float64(tHop))
			if ok3 {
				gridHops = append(gridHops, float64(gHop))
				_ = gDelay
			}
		}
	}
	if pairsReached == 0 {
		return nil, fmt.Errorf("experiments: no O-D pair reachable in both networks")
	}
	tab := metrics.NewTable("Figure 19a: routing stretch vs mega-constellation",
		"metric", "value", "paper")
	s := metrics.Summarize(stretches)
	tab.AddRow("stretch p50", fmt.Sprintf("%.2f", s.P50), "~1.1")
	tab.AddRow("stretch p90", fmt.Sprintf("%.2f", s.P90), "1.29")
	tab.AddRow("stretch max", fmt.Sprintf("%.2f", s.Max), "1.63")
	tab.AddRow("TinyLEO mean hops", fmt.Sprintf("%.1f", metrics.Mean(tinyHops)), "-")
	if len(gridHops) > 0 {
		tab.AddRow("Starlink+Grid mean hops", fmt.Sprintf("%.1f", metrics.Mean(gridHops)),
			"grid needs more hops than MPC")
	}
	tab.AddRow("O-D pairs evaluated", fmt.Sprintf("%d/%d", pairsReached, pairsTried), "-")
	return tab, nil
}

func scaledShells(scale Scale) []baseline.Shell {
	shells := baseline.StarlinkShells()
	total := 0
	for _, sh := range shells {
		total += sh.Config.NumSatellites()
	}
	f := float64(scale.ControlSats*6) / float64(total)
	if f >= 1 {
		return shells
	}
	out := make([]baseline.Shell, len(shells))
	for i, sh := range shells {
		w := sh.Config
		w.Planes = max(1, int(float64(w.Planes)*math.Sqrt(f)))
		w.SatsPerPlane = max(2, int(float64(w.SatsPerPlane)*math.Sqrt(f)))
		out[i] = baseline.Shell{Name: sh.Name, Config: w}
	}
	return out
}

func toMPCLinks(links []tssdn.Link) []mpc.Link {
	out := make([]mpc.Link, len(links))
	for i, l := range links {
		out[i] = mpc.Link{l[0], l[1]}
	}
	return out
}

func backboneRegionsSample() []geom.LatLon {
	return []geom.LatLon{
		{Lat: 40, Lon: -74}, {Lat: 50, Lon: 2}, {Lat: 35, Lon: 139},
		{Lat: -23, Lon: -46}, {Lat: 1, Lon: 103}, {Lat: 37, Lon: -122},
	}
}

func nearestSat(sats []orbit.Elements, p geom.LatLon, t float64) int {
	best, bestD := 0, math.Inf(1)
	for i, e := range sats {
		if d := geom.CentralAngle(e.SubSatellitePoint(t), p); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// Figure19bcd runs the packet-level data-plane measurements: RTT over a
// fixed route (19b), utilization of a synthetic 8 Mbit/s link under a
// saturating flow (19c), and local reroute latency under ISL failure versus
// the legacy control-plane path (19d).
func Figure19bcd(scale Scale) ([]*metrics.Table, error) {
	tb, err := newTestbed(scale)
	if err != nil {
		return nil, err
	}
	src, _, route, ok := findWorkingRoute(tb, 2)
	if !ok {
		return nil, fmt.Errorf("experiments: no deliverable route")
	}

	// --- 19b: ping RTT over 20 s (modeled as 2× one-way delay, SRv6
	// geo packets vs legacy IPv6 routing tables over the same path).
	rttTab := metrics.NewTable("Figure 19b: end-to-end RTT over the route",
		"second", "TinyLEO SRv6 RTT (ms)", "legacy IPv6 RTT (ms)")
	gw, gwOK := tb.GatewayOf(src)
	if !gwOK {
		return nil, fmt.Errorf("experiments: 19b source cell has no gateway")
	}
	legacyDst := installLegacyRoute(tb, src, route)
	var srvRTTs, legacyRTTs []float64
	for sec := 0; sec < 20; sec++ {
		var srvDelay, legDelay float64
		delivered := 0
		tb.Net.OnDeliver = func(s *dataplane.Satellite, p *dataplane.Packet) {
			if p.Geo() != nil {
				srvDelay = tb.Net.Sim.Now() - p.SentAt
			} else {
				legDelay = tb.Net.Sim.Now() - p.SentAt
			}
			delivered++
		}
		gp, _ := dataplane.NewGeoPacket(uint32(gw), route.Cells, 2, uint32(sec), make([]byte, 128))
		tb.Net.Inject(gw, gp)
		tb.Net.Inject(gw, baseline.TablePacket(legacyDst, make([]byte, 128)))
		tb.Net.Sim.Run(tb.Net.Sim.Now() + 1)
		if delivered == 2 {
			srvRTTs = append(srvRTTs, 2*srvDelay*1e3)
			legacyRTTs = append(legacyRTTs, 2*legDelay*1e3)
			rttTab.AddRow(sec, fmt.Sprintf("%.2f", 2*srvDelay*1e3), fmt.Sprintf("%.2f", 2*legDelay*1e3))
		}
	}
	tb.Net.OnDeliver = nil
	if len(srvRTTs) == 0 {
		return nil, fmt.Errorf("experiments: 19b pings never delivered")
	}
	summary19b := metrics.NewTable("Figure 19b (summary)", "plane", "mean RTT (ms)", "paper")
	summary19b.AddRow("TinyLEO SRv6", fmt.Sprintf("%.2f", metrics.Mean(srvRTTs)), "≈ propagation delay")
	summary19b.AddRow("legacy IPv6", fmt.Sprintf("%.2f", metrics.Mean(legacyRTTs)), "comparable to SRv6")

	// --- 19c: full-speed forwarding utilization, measured on a synthetic
	// 8 Mbit/s link so the event count stays tractable.
	utilTab, err := figure19c()
	if err != nil {
		return nil, err
	}

	// --- 19d: local reroute vs control-plane repair.
	failTab, err := Figure19d(scale)
	if err != nil {
		return nil, err
	}
	return []*metrics.Table{rttTab, summary19b, utilTab, failTab}, nil
}

// installLegacyRoute plugs the routing-table baseline into tb's network and
// pins the concrete satellite path a geo packet takes along r from srcCell
// into its tables; returns the destination satellite.
func installLegacyRoute(tb *chaos.Testbed, srcCell int, r intent.Route) int {
	tables := baseline.RouteByTables(tb.Net)
	p, _ := sendOnce(tb, srcCell, r)
	if p == nil || len(p.HopTrace) < 2 {
		gw, _ := tb.GatewayOf(srcCell)
		return gw
	}
	tables.InstallPath(p.HopTrace)
	return p.HopTrace[len(p.HopTrace)-1]
}

// figure19c measures ISL utilization under a saturating flow on a synthetic
// 8 Mbit/s link between two satellites in cells 100 and 200, not on a hop
// of the testbed: the slow link keeps the DES event count small while the
// utilization math stays exact.
func figure19c() (*metrics.Table, error) {
	net := dataplane.NewNetwork()
	net.ISLRateBps = 8e6 // 8 Mbit/s
	net.AddSatellite(0, 100)
	net.AddSatellite(1, 200)
	l := net.Connect(0, 1, 0.005)
	delivered := 0
	net.OnDeliver = func(s *dataplane.Satellite, p *dataplane.Packet) { delivered++ }
	// 2,000 packets of 1,000 B on the wire, 1 ms each at 8 Mbit/s: 2 s of
	// back-to-back transmission, all within the default 4,096-packet queue.
	pktSize := 1000 - dataplane.BaseHeaderLen - 8 // payload so wire ≈ 1,000 B
	for i := 0; i < 2000; i++ {
		p, err := dataplane.NewGeoPacket(0, []int{200}, 4, uint32(i), make([]byte, pktSize))
		if err != nil {
			return nil, err
		}
		net.Inject(0, p)
	}
	net.Sim.Run(2.5)
	tab := metrics.NewTable("Figure 19c: ISL utilization under full-speed forwarding",
		"metric", "value", "paper")
	tab.AddRow("bottleneck utilization", fmt.Sprintf("%.1f%%", 100*l.Utilization()), "≈100%")
	tab.AddRow("packets delivered", delivered, "-")
	tab.AddRow("drops", l.Drops, "0 with in-kernel SRv6")
	return tab, nil
}

// Figure19d measures the delivery gap when the primary ISL fails mid-flow:
// TinyLEO's local anycast failover versus the legacy plane waiting for the
// control plane (83.8 ms average repair, Figure 17d). It builds one testbed;
// each plane flies a fresh network built from its slot-0 snapshot, as
// chaos.NewTestbed builds its own.
func Figure19d(scale Scale) (*metrics.Table, error) {
	tb, err := newTestbed(scale)
	if err != nil {
		return nil, err
	}
	src, _, route, ok := findWorkingRoute(tb, 2)
	if !ok {
		return nil, fmt.Errorf("experiments: no deliverable route for 19d")
	}

	measureGap := func(legacy bool) (float64, error) {
		// The plane shares tb's snapshot and intent; only its network is new.
		tb2 := *tb
		tb2.Net = chaos.BuildNetwork(tb.Snap, tb.Sats, tb.Cfg.ISLRateBps, tb.Cfg.QueueLimit)
		gw2, gwOK2 := tb2.GatewayOf(src)
		if !gwOK2 {
			return 0, fmt.Errorf("experiments: 19d source cell has no gateway")
		}
		var legacyDst int
		if legacy {
			legacyDst = installLegacyRoute(&tb2, src, route)
		}
		// The probe finds the first-hop link the flow uses; its failure is
		// scheduled below.
		probe, _ := tb2.Probe(gw2, route.Cells)
		if probe == nil || len(probe.HopTrace) < 2 {
			return 0, fmt.Errorf("experiments: 19d probe (legacy=%v) not delivered", legacy)
		}
		link := tb2.Net.Link(probe.HopTrace[0], probe.HopTrace[1])
		var deliveries []float64
		tb2.Net.OnDeliver = func(s *dataplane.Satellite, p *dataplane.Packet) {
			deliveries = append(deliveries, tb2.Net.Sim.Now())
		}

		start := tb2.Net.Sim.Now()
		failAt := start + 0.050
		tb2.Net.Sim.Schedule(failAt-start, func() { link.Down() })
		if legacy {
			// Control-plane repair: after the Figure-17d RTT the table is
			// fixed and buffered packets flushed.
			tb2.Net.Sim.Schedule(failAt-start+0.0838, func() {
				link.Up() // repaired (replacement ISL modeled as same link)
				tb2.Net.FlushBuffers()
			})
		}
		// 10 ms packet cadence for 200 ms.
		for i := 0; i < 20; i++ {
			i := i
			tb2.Net.Sim.Schedule(float64(i)*0.010, func() {
				if legacy {
					tb2.Net.Inject(gw2, baseline.TablePacket(legacyDst, nil))
					return
				}
				gp, _ := dataplane.NewGeoPacket(uint32(gw2), route.Cells, 6, uint32(i), nil)
				tb2.Net.Inject(gw2, gp)
			})
		}
		tb2.Net.Sim.Run(start + 1)
		if len(deliveries) < 2 {
			return 0, fmt.Errorf("experiments: 19d flow (legacy=%v) delivered %d packets", legacy, len(deliveries))
		}
		gap := 0.0
		for i := 1; i < len(deliveries); i++ {
			if d := deliveries[i] - deliveries[i-1]; d > gap {
				gap = d
			}
		}
		return gap * 1e3, nil
	}

	tinyGap, err := measureGap(false)
	if err != nil {
		return nil, err
	}
	legacyGap, err := measureGap(true)
	if err != nil {
		return nil, err
	}
	tab := metrics.NewTable("Figure 19d: rerouting under random ISL failures",
		"plane", "max delivery gap (ms)", "paper")
	tab.AddRow("TinyLEO local anycast reroute", fmt.Sprintf("%.1f", tinyGap), "13.6-44.3 ms")
	tab.AddRow("legacy (waits for control plane)", fmt.Sprintf("%.1f", legacyGap), "≥ 83.8 ms repair")
	return tab, nil
}

// connectComponents adds the shortest visible ISL between connected
// components until the constellation graph is connected (or no visible
// cross-component pair exists). Returns the augmented link list.
func connectComponents(sats []orbit.Elements, links []mpc.Link, t float64) []mpc.Link {
	pos := make([]geom.Vec3, len(sats))
	for i, e := range sats {
		pos[i] = e.PositionECI(t)
	}
	isl := orbit.DefaultISLParams
	for {
		comp := componentLabels(len(sats), links)
		// Find the closest visible pair across different components.
		bestA, bestB, bestD := -1, -1, math.Inf(1)
		for i := 0; i < len(sats); i++ {
			for j := i + 1; j < len(sats); j++ {
				if comp[i] == comp[j] {
					continue
				}
				if d := pos[i].Dist(pos[j]); d < bestD && isl.Visible(pos[i], pos[j]) {
					bestA, bestB, bestD = i, j, d
				}
			}
		}
		if bestA < 0 {
			return links // connected, or unbridgeable at this instant
		}
		links = append(links, mpc.MakeLink(bestA, bestB))
	}
}

func componentLabels(n int, links []mpc.Link) []int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, l := range links {
		a, b := find(l[0]), find(l[1])
		if a != b {
			parent[a] = b
		}
	}
	out := make([]int, n)
	for i := range out {
		out[i] = find(i)
	}
	return out
}
