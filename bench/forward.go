package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/chaos"
	"repro/internal/dataplane"
	"repro/internal/intent"
	"repro/internal/mpc"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/orbit"
)

const (
	// burstPackets enter the network between two advances of the emulator.
	burstPackets = 1000
	// simStep is the simulated time one advance covers. Packets live some
	// tens of simulated milliseconds, so bursts overlap in flight while the
	// busiest link stays well inside its 4,096-packet queue.
	simStep = 5e-3
	// largePayload alternates with the empty payload: the smallest packets
	// are half the mix because per-packet cost is the whole cost here.
	largePayload = 1200
	// failShare of the ISLs go down for forward-mix's phase B, which is the
	// last phaseBShare of the timed phase.
	failShare   = 0.10
	phaseBShare = 0.25
	// roundBursts bursts enter the network under each of phase B's fault
	// sets.
	roundBursts = 20
	// exactBursts is the fixed prefix of bursts whose packets give the
	// exact simulated-delay figure.
	exactBursts = 100
	// heapBurst is the burst of phase A after which forward-mix takes the
	// live heap. Phase B is not marked: its peak follows the fault sets.
	heapBurst = 200
)

// flow is one measured flow: a segment route and its ingress gateway.
type flow struct {
	gw    int
	route []int
}

// gatewayOf returns an ingress satellite for cell: a member of its gateway
// ring (only gateways hold ISLs).
func gatewayOf(topo *intent.Topology, snap *mpc.Snapshot, cell int) (int, bool) {
	for _, v := range topo.Neighbors(cell) {
		if g := snap.Gateways[[2]int{cell, v}]; len(g) > 0 {
			return g[0], true
		}
	}
	return -1, false
}

// traffic drives geo-segment packets through an emulated network and keeps
// the packet accounting.
type traffic struct {
	net   *dataplane.Network
	flows []flow
	// large is the shared 1,200-byte payload.
	large []byte
	// base is the network's counters once the flows were picked.
	base netCounts

	injected, delivered int64
	headerBytes         int64
	simDelayMS          []float64 // of packets of the first exactBursts
	revisits            int64
	// checkHops makes every delivery scan its hop trace for a satellite
	// visited twice (traced runs).
	checkHops bool
	maxQueue  int
}

func newTraffic(net *dataplane.Network, checkHops bool) *traffic {
	tr := &traffic{net: net, large: make([]byte, largePayload), checkHops: checkHops}
	net.OnDeliver = func(_ *dataplane.Satellite, p *dataplane.Packet) {
		tr.delivered++
		if p.Base.Seq < exactBursts*burstPackets {
			tr.simDelayMS = append(tr.simDelayMS, (net.Sim.Now()-p.SentAt)*1e3)
		}
		if tr.checkHops && revisits(p.HopTrace) {
			tr.revisits++
		}
	}
	return tr
}

func revisits(hops []int) bool {
	for i, h := range hops {
		for _, g := range hops[:i] {
			if g == h {
				return true
			}
		}
	}
	return false
}

// pickFlows keeps, of the candidate cell pairs in order, those with a route
// between two different cells whose probe packet is delivered.
func (tr *traffic) pickFlows(topo *intent.Topology, snap *mpc.Snapshot, pairs [][2]int) {
	for _, pr := range pairs {
		route, err := topo.ShortestPathRoute(pr[0], pr[1])
		if err != nil || len(route.Cells) < 2 {
			continue
		}
		gw, ok := gatewayOf(topo, snap, pr[0])
		if !ok || tr.net.Sats[gw] == nil {
			continue
		}

		before := tr.delivered
		f := flow{gw, route.Cells}
		if err := tr.inject(f, 0, nil); err != nil {
			continue
		}
		tr.drain()
		if tr.delivered > before {
			tr.flows = append(tr.flows, f)
		}
	}
	// Probes are not traffic: drop the undelivered ones and restart the
	// accounting.
	for _, s := range tr.net.Sats {
		s.Buffer = nil
	}
	tr.injected, tr.delivered, tr.headerBytes, tr.simDelayMS = 0, 0, 0, nil
	tr.base = tr.counts()
}

// ingress builds one packet of flow f as it reaches its ingress gateway:
// encoded to bytes at the terminal and decoded again. It also returns the
// encoded length.
func ingress(f flow, seq uint32, payload []byte) (*dataplane.Packet, int, error) {
	pkt, err := dataplane.NewGeoPacket(uint32(f.gw), f.route, uint32(f.gw), seq, payload)
	if err != nil {
		return nil, 0, err
	}
	wire, err := pkt.Encode()
	if err != nil {
		return nil, 0, err
	}
	p, err := dataplane.Decode(wire)
	return p, len(wire), err
}

// inject sends one packet of flow f into the network.
func (tr *traffic) inject(f flow, seq uint32, payload []byte) error {
	p, wire, err := ingress(f, seq, payload)
	if err != nil {
		return err
	}
	tr.injected++
	tr.headerBytes += int64(wire - len(payload))
	tr.net.Inject(f.gw, p)
	return nil
}

// burst injects burstPackets packets round-robin over order (indices into
// flows), payload alternating empty and large, starting at sequence seq.
func (tr *traffic) burst(order []int, seq uint32) error {
	for k := uint32(0); k < burstPackets; k++ {
		var payload []byte
		if (seq+k)%2 == 1 {
			payload = tr.large
		}
		if err := tr.inject(tr.flows[order[int(seq+k)%len(order)]], seq+k, payload); err != nil {
			return err
		}
	}
	return nil
}

// advance runs the emulator one step and notes the deepest queue.
func (tr *traffic) advance() {
	tr.net.Sim.Run(tr.net.Sim.Now() + simStep)
	for _, l := range tr.net.Links() {
		tr.maxQueue = max(tr.maxQueue, l.QueuedPackets(l.A), l.QueuedPackets(l.B))
	}
}

// drain runs the emulator until no event is left.
func (tr *traffic) drain() {
	for tr.net.Sim.Step() {
	}
}

// counts sums the forwarders' and links' counters.
type netCounts struct {
	forwarded, delivered, dropped, buffered, offpath int64
	held                                             int64 // packets still buffered
	tx, linkDrops, lostInFlight                      int64
	utilMax                                          float64
}

func (tr *traffic) counts() netCounts {
	var c netCounts
	for _, s := range tr.net.Sats {
		c.forwarded += s.Forwarded
		c.delivered += s.Delivered
		c.dropped += s.Dropped
		c.offpath += s.Failovers + s.RingHops + s.Buffered
		c.held += int64(len(s.Buffer))
	}
	for _, l := range tr.net.Links() {
		c.tx += l.TxPackets
		c.linkDrops += l.Drops
		c.lostInFlight += l.LostInFlight
		c.utilMax = max(c.utilMax, l.Utilization())
	}
	return c
}

func (a netCounts) minus(b netCounts) netCounts {
	a.forwarded -= b.forwarded
	a.delivered -= b.delivered
	a.dropped -= b.dropped
	a.offpath -= b.offpath
	a.tx -= b.tx
	a.linkDrops -= b.linkDrops
	a.lostInFlight -= b.lostInFlight
	return a
}

// hops is the number of forwarding decisions that moved a packet on or
// handed it to the ground.
func (c netCounts) hops() float64 { return float64(c.forwarded + c.delivered) }

// ledger records the data-plane figures of the traffic since the flows were
// picked; busyNS is the host time injecting and emulating it took.
func (tr *traffic) ledger(r *run, busyNS float64) netCounts {
	c := tr.counts().minus(tr.base)
	n := int(tr.injected)
	r.led.ratio("fwd_pkts_per_s", float64(tr.delivered), busyNS/1e9, n)
	r.led.ratio("delivery_ratio", float64(tr.delivered), float64(tr.injected), n)
	r.led.ratio("dataplane.hops_per_pkt", c.hops(), float64(tr.injected), n)
	r.led.ratio("dataplane.offpath_share", float64(c.offpath), float64(c.forwarded), int(c.forwarded))
	r.led.ratio("dataplane.header_bytes_per_pkt", float64(tr.headerBytes), float64(tr.injected), n)
	r.led.set("dataplane.drops", float64(c.dropped), n)
	r.led.set("netem.queue_drops", float64(c.linkDrops-c.lostInFlight), int(c.tx))
	r.led.set("netem.max_queue_depth", float64(tr.maxQueue), n)
	r.led.set("netem.link_util_max", c.utilMax, len(tr.net.Links()))
	r.led.median("netem.sim_rtt_ms_p50", tr.simDelayMS)
	return c
}

// fwdBed is forward-mix's system under test.
type fwdBed struct {
	tb *chaos.Testbed
	tr *traffic
}

func newFwdBed(sats int, checkHops bool) (*fwdBed, error) {
	tb, err := chaos.NewTestbed(chaos.TestbedConfig{
		Sats: sats, ISLRateBps: dataplane.ISLRateBpsDefault, QueueLimit: 4096,
	})
	if err != nil {
		return nil, err
	}
	tr := newTraffic(tb.Net, checkHops)
	var pairs [][2]int
	for _, src := range tb.Cells {
		for _, dst := range tb.Cells {
			if src != dst {
				pairs = append(pairs, [2]int{src, dst})
			}
		}
	}
	tr.pickFlows(tb.Topo, tb.Snap, pairs)
	if len(tr.flows) == 0 {
		return nil, fmt.Errorf("forward-mix: no deliverable flow on the %d-satellite testbed", sats)
	}
	return &fwdBed{tb, tr}, nil
}

// runForwardMix keeps the data plane and the emulator busy and the control
// plane idle: all-pairs geo-segment traffic, first on an intact network
// (phase A), then through rounds of seeded ISL failures (phase B).
func (r *run) runForwardMix() error {
	b, err := setup(r, func() (*fwdBed, error) { return newFwdBed(r.opt.size.fwdSats, r.opt.trace) }, func(*fwdBed) {})
	if err != nil {
		return err
	}
	tr := b.tr
	order := r.rng.Perm(len(tr.flows))
	r.note("%d flows over %d cells, %d satellites and %d ISLs in the emulated network",
		len(tr.flows), len(b.tb.Cells), len(tr.net.Sats), len(tr.net.Links()))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	var runNS float64
	var seq uint32
	burst := func() {
		r.op("op.burst", func(root obs.SpanContext, op int) {
			r.layer(root, op, "dataplane.inject", func() {
				if e := tr.burst(order, seq); e != nil {
					err = e
				}
			})
			runNS += float64(r.layer(root, op, "netem.run", tr.advance))
		})
		seq += burstPackets
	}
	drain := func() {
		r.op("op.drain", func(root obs.SpanContext, op int) {
			runNS += float64(r.layer(root, op, "netem.run", tr.drain))
		})
	}

	// Phase A: no faults. Its packets land before the faults, so its
	// delivery ratio is its own.
	r.startTimed()
	phaseB := r.timedStart.Add(time.Duration((1 - phaseBShare) * float64(r.deadline.Sub(r.timedStart))))
	for err == nil && time.Now().Before(phaseB) {
		burst()
		if r.ops == heapBurst {
			// Phase A's steady state: some tens of thousands of packets
			// in flight.
			r.heapMark()
		}
	}
	drain()
	if err != nil {
		return err
	}
	aOps, aMS := r.ops, sum(r.latencies())
	a := tr.counts().minus(tr.base)
	if tr.delivered != tr.injected {
		r.fail("phase A delivered %d of %d packets", tr.delivered, tr.injected)
	}
	if tr.revisits > 0 {
		r.fail("phase A: %d delivered packets visited a satellite twice", tr.revisits)
	}
	aRevisits := tr.revisits

	// Phase B: fault rounds until the time is up. Each round takes a seeded
	// share of the ISLs down mid-flow, keeps the traffic coming on local
	// failover and the ring fallback, lets the control plane repair the
	// topology and the buffered packets go on, and then puts the topology
	// back, so that every round starts from the same network and a run
	// averages over many fault sets.
	links := tr.net.Links()
	for rounds := 0; err == nil && (r.more() || rounds == 0); rounds++ {
		burst()
		var failed []mpc.Link
		var down, raised []*netem.Link
		for _, i := range r.rng.Perm(len(links))[:max(1, int(failShare*float64(len(links))))] {
			links[i].Down()
			down = append(down, links[i])
			failed = append(failed, mpc.MakeLink(links[i].A, links[i].B))
		}
		for k := 0; err == nil && k < roundBursts; k++ {
			burst()
		}
		repaired, _ := b.tb.Ctl.Repair(b.tb.Snap, failed, nil, 0)
		for _, l := range repaired.Links() {
			if tr.net.Sats[l[0]] == nil || tr.net.Sats[l[1]] == nil {
				continue
			}
			if nl := tr.net.Link(l[0], l[1]); nl == nil || !nl.IsUp() {
				raised = append(raised, tr.net.EnsureLink(l[0], l[1], orbit.PropagationDelay(
					b.tb.Sats[l[0]].PositionECI(repaired.Time), b.tb.Sats[l[1]].PositionECI(repaired.Time))))
			}
		}
		tr.net.FlushBuffers()
		drain()
		for _, l := range raised {
			l.Down()
		}
		for _, l := range down {
			l.Up()
		}
		tr.net.FlushBuffers()
		drain()
	}
	if err != nil {
		return err
	}
	bOps, bMS := r.ops-aOps, sum(r.latencies())-aMS
	r.finish()
	runtime.ReadMemStats(&ms)

	all := tr.ledger(r, (aMS+bMS)*1e6)
	bc := all.minus(a)
	r.attempted += tr.injected
	if lost := all.dropped + all.lostInFlight + all.held; tr.delivered+lost != tr.injected {
		r.fail("packets not conserved: %d injected, %d delivered, %d dropped, %d lost in flight, %d buffered",
			tr.injected, tr.delivered, all.dropped, all.lostInFlight, all.held)
	}
	if r.opt.trace {
		// With the one ISL of a cell edge down, the ring fallback walks a
		// packet round the ring until the repair: revisits are what the
		// forwarder does here, so phase B reports them without failing.
		r.note("phase B: %d of %d delivered packets visited a satellite twice", tr.revisits-aRevisits, tr.delivered-a.delivered)
	}
	r.led.ratio("dataplane.ns_per_hop_fast", aMS*1e6, a.hops(), aOps)
	r.led.ratio("dataplane.ns_per_hop_failover", bMS*1e6, bc.hops(), bOps)
	r.led.ratio("dataplane.allocs_per_hop", float64(ms.Mallocs-mallocs0), all.hops(), r.ops)
	r.led.ratio("netem.events_per_s", float64(all.tx), runNS/1e9, r.ops)
	if r.sp != nil {
		r.isolatedPacketCodec(tr.flows[order[0]])
	}
	return nil
}
