package dataplane

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// chainNet builds a 3-cell chain with 2 gateways per cell:
//
//	cell 10: sats 0,1   cell 20: sats 2,3   cell 30: sats 4,5
//
// Inter-cell ISLs: 0-2, 1-3 (10↔20) and 2-4, 3-5 (20↔30).
// Rings: (0,1), (2,3), (4,5).
func chainNet() *Network {
	n := NewNetwork()
	cells := map[int]int{0: 10, 1: 10, 2: 20, 3: 20, 4: 30, 5: 30}
	for id, c := range cells {
		n.AddSatellite(id, c)
	}
	d := 0.005 // 5 ms per hop
	n.Connect(0, 2, d)
	n.Connect(1, 3, d)
	n.Connect(2, 4, d)
	n.Connect(3, 5, d)
	n.SetRing([]int{0, 1})
	n.SetRing([]int{2, 3})
	n.SetRing([]int{4, 5})
	n.Connect(0, 1, 0.001)
	n.Connect(2, 3, 0.001)
	n.Connect(4, 5, 0.001)
	return n
}

func TestGeoForwardingDelivers(t *testing.T) {
	n := chainNet()
	var deliveredAt *Satellite
	var deliveredPkt *Packet
	n.OnDeliver = func(s *Satellite, p *Packet) { deliveredAt, deliveredPkt = s, p }
	p, err := NewGeoPacket(99, []int{20, 30}, 1, 1, []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	n.Inject(0, p)
	n.Sim.Run(1)
	if deliveredAt == nil {
		t.Fatal("packet not delivered")
	}
	if deliveredAt.Cell != 30 {
		t.Errorf("delivered at cell %d", deliveredAt.Cell)
	}
	if len(deliveredPkt.HopTrace) == 0 || deliveredPkt.HopTrace[0] != 0 {
		t.Errorf("trace = %v", deliveredPkt.HopTrace)
	}
	if deliveredPkt.Geo().SegmentsLeft != 0 {
		t.Error("segments not consumed")
	}
}

func TestGeoForwardingLatencyIsPropagation(t *testing.T) {
	n := chainNet()
	var deliveredTime float64
	n.OnDeliver = func(s *Satellite, p *Packet) { deliveredTime = n.Sim.Now() }
	p, _ := NewGeoPacket(99, []int{20, 30}, 1, 1, nil)
	n.Inject(0, p)
	n.Sim.Run(1)
	// Two 5 ms hops (0→2→4); serialization at 200 Gbps is negligible.
	if deliveredTime < 0.0099 || deliveredTime > 0.0111 {
		t.Errorf("delivery at %v s, want ≈0.010", deliveredTime)
	}
}

func TestAnycastAnyGatewayWorks(t *testing.T) {
	// Injecting at satellite 1 (the other gateway of cell 10) must also
	// deliver — that is the anycast property.
	n := chainNet()
	done := false
	n.OnDeliver = func(s *Satellite, p *Packet) { done = true }
	p, _ := NewGeoPacket(99, []int{20, 30}, 1, 1, nil)
	n.Inject(1, p)
	n.Sim.Run(1)
	if !done {
		t.Fatal("anycast via second gateway failed")
	}
}

func TestRingFallbackWhenNoDirectISL(t *testing.T) {
	// Satellite 0 has the only ISL toward cell 20 removed; a packet
	// injected at 0 must walk the ring to 1 and leave via 1-3.
	n := NewNetwork()
	for id, c := range map[int]int{0: 10, 1: 10, 3: 20} {
		n.AddSatellite(id, c)
	}
	n.Connect(1, 3, 0.005)
	n.Connect(0, 1, 0.001)
	n.SetRing([]int{0, 1})
	done := false
	n.OnDeliver = func(s *Satellite, p *Packet) { done = true }
	p, _ := NewGeoPacket(99, []int{20}, 1, 1, nil)
	n.Inject(0, p)
	n.Sim.Run(1)
	if !done {
		t.Fatal("ring fallback failed")
	}
	if n.Sats[0].RingHops != 1 {
		t.Errorf("ring hops = %d", n.Sats[0].RingHops)
	}
}

func TestLocalFailoverOnLinkDown(t *testing.T) {
	// Down the 0-2 ISL: satellite 0 must reroute via the ring to 1→3
	// without any control-plane involvement (Figure 19d).
	n := chainNet()
	n.Link(0, 2).Down()
	done := false
	var at float64
	n.OnDeliver = func(s *Satellite, p *Packet) { done, at = true, n.Sim.Now() }
	p, _ := NewGeoPacket(99, []int{20, 30}, 1, 1, nil)
	n.Inject(0, p)
	n.Sim.Run(1)
	if !done {
		t.Fatal("failover failed")
	}
	if n.Sats[0].Failovers != 1 {
		t.Errorf("failovers = %d", n.Sats[0].Failovers)
	}
	// Extra ring hop adds ~1 ms.
	if at < 0.0105 || at > 0.02 {
		t.Errorf("failover delivery at %v", at)
	}
}

func TestBufferWhenRingBroken(t *testing.T) {
	// All of satellite 0's exits die: packet must be buffered, then flushed
	// after "repair" (link back up).
	n := chainNet()
	n.Link(0, 2).Down()
	n.Link(0, 1).Down()
	var got *Packet
	n.OnDeliver = func(s *Satellite, p *Packet) { got = p }
	p, _ := NewGeoPacket(99, []int{20, 30}, 1, 1, nil)
	n.Inject(0, p)
	n.Sim.Run(0.1)
	if got != nil {
		t.Fatal("delivered despite partition")
	}
	if n.Sats[0].Buffered != 1 || len(n.Sats[0].Buffer) != 1 {
		t.Fatalf("not buffered: %d", n.Sats[0].Buffered)
	}
	// Control plane repairs the ISL; flush.
	n.Link(0, 2).Up()
	n.FlushBuffers()
	n.Sim.Run(1)
	if got == nil {
		t.Fatal("buffered packet not delivered after repair")
	}
	// The flush re-runs the routing decision at satellite 0; it is not a
	// second arrival there.
	if want := []int{0, 2, 4}; !slices.Equal(got.HopTrace, want) {
		t.Errorf("trace = %v, want %v (no satellite twice)", got.HopTrace, want)
	}
}

func TestHopLimitDrops(t *testing.T) {
	// A packet with one hop to spend on a two-hop route is dropped where
	// the budget runs out, not forwarded further.
	n := chainNet()
	var at *Satellite
	reason := ""
	n.OnDrop = func(s *Satellite, p *Packet, r string) { at, reason = s, r }
	n.OnDeliver = func(s *Satellite, p *Packet) { t.Error("delivered past its hop limit") }
	p, _ := NewGeoPacket(99, []int{20, 30}, 1, 1, nil)
	p.Base.HopLimit = 1
	n.Inject(0, p)
	n.Sim.Run(5)
	if at == nil || at.Cell != 20 || reason != "hop limit" {
		t.Errorf("dropped at %+v for %q, want in cell 20 for hop limit", at, reason)
	}
}

func TestRingPassStopsAfterOneCircle(t *testing.T) {
	// Cell 10's ring 0→1→2→0 is intact but its only ISL toward cell 20 is
	// down. The packet goes round once and is buffered where the ring pass
	// began (§4.3), instead of circling until the hop limit; the repair's
	// flush sends it round again, to the member whose ISL came back.
	n := NewNetwork()
	for id := 0; id < 3; id++ {
		n.AddSatellite(id, 10)
	}
	n.AddSatellite(3, 20)
	n.Connect(0, 1, 0.001)
	n.Connect(1, 2, 0.001)
	n.Connect(2, 0, 0.001)
	n.Connect(1, 3, 0.005)
	n.SetRing([]int{0, 1, 2})
	n.Link(1, 3).Down()
	var got *Packet
	n.OnDeliver = func(s *Satellite, p *Packet) { got = p }
	n.OnDrop = func(s *Satellite, p *Packet, r string) { t.Errorf("dropped at %d: %s", s.ID, r) }
	p, _ := NewGeoPacket(99, []int{20}, 1, 1, nil)
	n.Inject(0, p)
	n.Sim.Run(5)
	if got != nil || len(n.Sats[0].Buffer) != 1 {
		t.Fatalf("after one circle: delivered %v, %d buffered at the entry member", got != nil, len(n.Sats[0].Buffer))
	}
	if want := []int{0, 1, 2, 0}; !slices.Equal(p.HopTrace, want) {
		t.Errorf("trace = %v, want one circle %v", p.HopTrace, want)
	}
	n.Link(1, 3).Up()
	n.FlushBuffers()
	n.Sim.Run(10)
	if got == nil {
		t.Fatal("buffered packet not delivered after repair")
	}
	if want := []int{0, 1, 2, 0, 1, 3}; !slices.Equal(got.HopTrace, want) {
		t.Errorf("trace = %v, want %v", got.HopTrace, want)
	}
}

func TestNonGeoPacketIsDroppedNoRoute(t *testing.T) {
	// Decode legitimately yields a nil Geo() for a packet whose base header
	// chains straight to the payload (or to nothing); the production router
	// has nothing to route it by and must say so, not dereference it.
	for _, nh := range []uint8{NextHeaderPayload, NextHeaderNone} {
		h := BaseHeader{Ver: Version, NextHeader: nh, HopLimit: 16, FlowID: 4, PayloadLen: 2}
		p, err := Decode(append(h.Marshal(nil), "hi"...))
		if err != nil {
			t.Fatal(err)
		}
		if p.Geo() != nil {
			t.Fatalf("next header 0x%02x decoded a segment list", nh)
		}
		n := chainNet()
		reason, delivered := "", false
		n.OnDrop = func(s *Satellite, p *Packet, r string) { reason = r }
		n.OnDeliver = func(s *Satellite, p *Packet) { delivered = true }
		n.Inject(0, p)
		n.Sim.Run(1)
		if reason != "no route" || delivered || n.Sats[0].Dropped != 1 {
			t.Errorf("next header 0x%02x: reason %q, delivered %v, dropped %d",
				nh, reason, delivered, n.Sats[0].Dropped)
		}
	}
}

// A decoded packet is the network's after its delivery: injecting it again
// is a caller's mistake, which shows as a "no route" drop (release cleared
// its route), never puts the packet in the pool twice, and leaves nothing
// of its hop in the next packet Decode hands out.
func TestReinjectedDeliveredPacketIsDroppedNoRoute(t *testing.T) {
	n := chainNet()
	built, _ := NewGeoPacket(99, []int{20, 30}, 1, 1, []byte("hi"))
	wire, _ := built.Encode()
	p, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	var traces [][]int
	reason := ""
	n.OnDeliver = func(s *Satellite, p *Packet) { traces = append(traces, slices.Clone(p.HopTrace)) }
	n.OnDrop = func(s *Satellite, p *Packet, r string) { reason = r }
	n.Inject(0, p)
	n.Sim.Run(1)
	n.Inject(0, p)
	n.Sim.Run(2)
	if len(traces) != 1 || reason != "no route" || p.pooled != nil {
		t.Errorf("%d delivered, second injection dropped for %q, pooled %p: want 1, \"no route\", nil",
			len(traces), reason, p.pooled)
	}
	next, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	n.Inject(0, next)
	n.Sim.Run(3)
	if want := [][]int{{0, 2, 4}, {0, 2, 4}}; !reflect.DeepEqual(traces, want) {
		t.Errorf("traces %v, want %v", traces, want)
	}
}

// A copy of a decoded packet is not the pool's: delivering or dropping it
// pools nothing, so no later Decode hands out the copy, or the packet it
// copies while that is still in flight, and the packet itself still goes back
// to the pool at its own delivery.
func TestReleasedCopyNeverEntersThePool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one pool shard: a put is the next get
	n := chainNet()
	built, _ := NewGeoPacket(99, []int{20, 30}, 1, 1, []byte("hi"))
	wire, _ := built.Encode()
	q, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	dropped := bytes.Clone(wire)
	dropped[2] = 0 // HopLimit: dropped at its first forward
	for _, in := range [][]byte{bytes.Clone(wire), dropped} {
		p, err := Decode(in)
		if err != nil {
			t.Fatal(err)
		}
		c := *p
		n.Inject(0, &c)
		n.Sim.Run(n.Sim.Now() + 1)
		for i := 0; i < 4; i++ {
			if d, err := Decode(wire); err != nil || d == &c || d == q || d == p {
				t.Fatalf("after a copy's release, Decode handed out %p (err %v): copy %p, in flight %p, %p", d, err, &c, q, p)
			}
		}
	}
	if s := n.Sats[0]; s.Dropped != 1 || n.Sats[4].Delivered != 1 {
		t.Fatalf("copies: %d dropped at 0, %d delivered at 4, want 1 and 1", s.Dropped, n.Sats[4].Delivered)
	}
	n.Inject(0, q)
	n.Sim.Run(n.Sim.Now() + 1)
	if q.pooled != nil {
		t.Fatal("the packet a copy was made of was not released at its delivery")
	}
	if next, err := Decode(wire); !raceEnabled && (err != nil || next != q) {
		t.Errorf("Decode after the packet's delivery handed out %p (err %v), want the packet %p back", next, err, q)
	}
}

// A decoded packet lost on an ISL that went down under it goes back to the
// network exactly once, with its frame: the link counts the loss, and the
// satellites count no drop.
func TestPacketLostInFlightIsReleasedOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one pool shard: a put is the next get
	n := chainNet()
	n.OnDeliver = func(*Satellite, *Packet) { t.Error("a packet lost in flight was delivered") }
	n.OnDrop = func(_ *Satellite, _ *Packet, r string) { t.Errorf("a packet lost in flight was dropped for %q", r) }
	built, _ := NewGeoPacket(99, []int{20, 30}, 1, 1, []byte("hi"))
	wire, _ := built.Encode()
	p, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	no := p.frame
	n.Inject(0, p) // on its way to satellite 2, 5 ms away
	l := n.Link(0, 2)
	l.Down()
	n.Sim.Run(1)
	dropped := int64(0)
	for _, s := range n.Sats {
		dropped += s.Dropped
	}
	if dropped != 0 || l.LostInFlight != 1 {
		t.Fatalf("%d dropped, %d lost in flight, want 0 and 1", dropped, l.LostInFlight)
	}
	if p.pooled != nil {
		t.Fatal("the packet lost in flight was not released")
	}
	listed := 0
	frames.mu.Lock()
	for _, idle := range frames.idle {
		for _, f := range idle {
			if f == no {
				listed++
			}
		}
	}
	frames.mu.Unlock()
	if no != 0 && listed != 1 {
		t.Errorf("frame %d is on the free lists %d times, want once", no, listed)
	}
	first, err1 := Decode(wire)
	second, err2 := Decode(wire)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if first == second {
		t.Fatalf("two decodes handed out the same packet %p: it was released twice", first)
	}
	if !raceEnabled && first != p {
		t.Errorf("Decode after the loss handed out %p, want the lost packet %p back", first, p)
	}
}

func TestMultiSegmentRouteConsumesOwnCell(t *testing.T) {
	// Route whose first segment is the injecting satellite's own cell.
	n := chainNet()
	done := false
	n.OnDeliver = func(s *Satellite, p *Packet) { done = true }
	p, _ := NewGeoPacket(99, []int{10, 20}, 1, 1, nil)
	n.Inject(0, p)
	n.Sim.Run(1)
	if !done {
		t.Fatal("own-cell segment not consumed")
	}
}

func TestStatsAccounting(t *testing.T) {
	n := chainNet()
	n.OnDeliver = func(s *Satellite, p *Packet) {}
	for i := 0; i < 5; i++ {
		p, _ := NewGeoPacket(99, []int{20, 30}, 1, uint32(i), nil)
		n.Inject(0, p)
	}
	n.Sim.Run(1)
	if n.Sats[0].Forwarded != 5 {
		t.Errorf("forwarded = %d", n.Sats[0].Forwarded)
	}
	if n.Sats[4].Delivered != 5 {
		t.Errorf("delivered = %d", n.Sats[4].Delivered)
	}
	if n.Link(0, 2).TxPackets != 5 {
		t.Errorf("link tx = %d", n.Link(0, 2).TxPackets)
	}
}

// A steady-state hop — Link.Send, the event queue, the arrival, Receive,
// Route, Link.Send — allocates nothing: the budget is 0 objects for a packet
// forwarded over chainNet's three hops once its hop trace and the event queue
// have their storage.
func TestWarmHopAllocatesNothing(t *testing.T) {
	n := chainNet()
	delivered := 0
	n.OnDeliver = func(s *Satellite, p *Packet) { delivered++ }
	p, err := NewGeoPacket(99, []int{20, 30}, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	forward := func() {
		rewind(p)
		n.Inject(0, p)
		n.Sim.Run(n.Sim.Now() + 1)
	}
	forward()
	if got := testing.AllocsPerRun(100, forward); got != 0 {
		t.Errorf("a warm packet's three hops allocate %v objects, budget 0", got)
	}
	if delivered != 102 || !slices.Equal(p.HopTrace, []int{0, 2, 4}) {
		t.Errorf("delivered %d of 102 along %v", delivered, p.HopTrace)
	}
}

// starNet is satellite 0 of cell 10 with ISLs, connected in no particular
// order, to gateways 7, 3 and 5 of cell 20 and 9 of cell 30.
func starNet() *Network {
	n := NewNetwork()
	n.AddSatellite(0, 10)
	for _, id := range []int{7, 3, 9, 5} {
		n.AddSatellite(id, 20)
		n.Connect(0, id, 0.005)
	}
	n.Sats[9].Cell = 30
	return n
}

func TestAnycastPicksLowestUpGatewayAndNotesAnyDownISL(t *testing.T) {
	n := starNet()
	route := func(cell int) Decision {
		p, err := NewGeoPacket(99, []int{cell}, 1, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return Anycast{}.Route(n.Sats[0], p)
	}
	if d := route(20); d.Verb != Forward || d.Peer != 3 || d.Failover || d.Ring {
		t.Errorf("all ISLs up: %+v, want forward to 3 with no failover", d)
	}
	n.Link(0, 3).Down()
	if d := route(20); d.Verb != Forward || d.Peer != 5 || !d.Failover {
		t.Errorf("0-3 down: %+v, want forward to 5 with failover", d)
	}
	// A down ISL that sorts after the gateway picked is a failover too.
	n.Link(0, 3).Up()
	n.Link(0, 7).Down()
	if d := route(20); d.Verb != Forward || d.Peer != 3 || !d.Failover {
		t.Errorf("0-7 down: %+v, want forward to 3 with failover", d)
	}
	if d := route(30); d.Verb != Forward || d.Peer != 9 || d.Failover {
		t.Errorf("toward cell 30: %+v, want forward to 9, the down ISL leads elsewhere", d)
	}
}

func TestRehomedNeighbourIsRoutedByItsNewCell(t *testing.T) {
	// chaos.Testbed re-homes a satellite's Cell on a live network; the
	// neighbour table must read it through the satellite, not remember it.
	n := starNet()
	p20, _ := NewGeoPacket(99, []int{20}, 1, 0, nil)
	p30, _ := NewGeoPacket(99, []int{30}, 1, 1, nil)
	n.Sats[3].Cell = 30
	if d := (Anycast{}).Route(n.Sats[0], p20); d.Peer != 5 {
		t.Errorf("toward cell 20 after 3 moved to cell 30: %+v, want peer 5", d)
	}
	if d := (Anycast{}).Route(n.Sats[0], p30); d.Peer != 3 {
		t.Errorf("toward cell 30 after 3 moved there: %+v, want peer 3", d)
	}
}

func TestEnsureLinkKeepsNeighbourTableSorted(t *testing.T) {
	n := starNet()
	n.AddSatellite(4, 20)
	l := n.EnsureLink(0, 4, 0.005)
	if want := []int{3, 4, 5, 7, 9}; !slices.Equal(n.Sats[0].Peers(), want) {
		t.Errorf("peers = %v, want %v", n.Sats[0].Peers(), want)
	}
	if n.Link(0, 4) != l || n.Link(4, 0) != l || !slices.Equal(n.Sats[4].Peers(), []int{0}) {
		t.Errorf("the new ISL is not filed at both ends")
	}
	l.Down()
	if again := n.EnsureLink(4, 0, 0.007); again != l || !l.IsUp() || len(n.Links()) != 5 {
		t.Errorf("EnsureLink on an existing pair: same link %v, up %v, %d links", again == l, l.IsUp(), len(n.Links()))
	}
	if l.Delay != 0.007 {
		t.Errorf("a re-raised link keeps delay %v, want the new 0.007", l.Delay)
	}
	if n.EnsureLink(0, 4, 0.009); l.Delay != 0.007 {
		t.Errorf("EnsureLink changed an up link's delay to %v", l.Delay)
	}
	for _, id := range []int{3, 4, 5, 7, 9} {
		if got := n.Link(0, id); got == nil || got.Peer(0) != id {
			t.Errorf("Link(0, %d) = %v", id, got)
		}
	}
	if n.Link(0, 6) != nil || n.Link(6, 0) != nil {
		t.Error("Link found an ISL that was never made")
	}
}

// flushScenario builds a seeded failure and repair: gateways 1..8 of cell 10
// each hold an ISL to satellite 20 of cell 20, which has the one slow ISL on
// to cell 30. Every ISL out of cell 10 fails, a seeded number of equal-sized
// packets is buffered at each gateway, the ISLs come back and the buffers are
// flushed. The flushed packets reach satellite 20 at the same instant, so
// the order they queue in on the shared ISL — and with a short queue, which
// of them it drops — is the order FlushBuffers visited the gateways in.
func flushScenario(t *testing.T, seed int64) (linkStats []int64, deliveredAt []float64) {
	rng := rand.New(rand.NewSource(seed))
	n := NewNetwork()
	n.ISLRateBps, n.QueueLimit = 1e6, 6
	n.AddSatellite(20, 20)
	n.AddSatellite(30, 30)
	n.Connect(20, 30, 0.002)
	for _, id := range rng.Perm(8) {
		n.AddSatellite(id+1, 10)
		n.Connect(id+1, 20, 0.005).Down()
	}
	var seq uint32
	for id := 1; id <= 8; id++ {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			p, err := NewGeoPacket(uint32(id), []int{20, 30}, 1, seq, make([]byte, 100))
			if err != nil {
				t.Fatal(err)
			}
			seq++
			n.Inject(id, p)
		}
	}
	deliveredAt = make([]float64, seq)
	n.OnDeliver = func(_ *Satellite, p *Packet) { deliveredAt[p.Base.Seq] = n.Sim.Now() }
	for id := 1; id <= 8; id++ {
		n.Link(id, 20).Up()
	}
	n.FlushBuffers()
	n.Sim.Run(1)
	for _, l := range n.Links() {
		linkStats = append(linkStats, int64(l.A), int64(l.B), l.TxPackets, l.Drops)
	}
	return linkStats, deliveredAt
}

func TestFlushBuffersOrderIsDeterministic(t *testing.T) {
	links, at := flushScenario(t, 5)
	delivered := 0
	for _, v := range at {
		if v > 0 {
			delivered++
		}
	}
	if delivered == 0 || delivered == len(at) {
		t.Fatalf("%d of %d delivered: the scenario needs both deliveries and queue drops", delivered, len(at))
	}
	for i := 0; i < 5; i++ {
		links2, at2 := flushScenario(t, 5)
		if !slices.Equal(links, links2) {
			t.Errorf("build %d: per-link (A, B, tx, drops) differ:\n%v\n%v", i, links, links2)
		}
		if !slices.Equal(at, at2) {
			t.Errorf("build %d: per-packet delivery times differ:\n%v\n%v", i, at, at2)
		}
	}
}

// outcome is what a hook saw of one packet, copied out of it: a delivery
// when reason is empty, else a drop.
type outcome struct {
	sat         int
	seq         uint32
	reason      string
	at, sentAt  float64
	hops        []int
	payload     string
	segmentLeft uint8
}

func (o outcome) String() string {
	return fmt.Sprintf("{sat %d seq %d %q at %v sent %v hops %v payload %q left %d}",
		o.sat, o.seq, o.reason, o.at, o.sentAt, o.hops, o.payload, o.segmentLeft)
}

// recycleScenario is one of the networks above, faulted, with the repair
// that lets its buffered packets go on (nil: none).
type recycleScenario struct {
	name   string
	build  func() *Network
	repair func(n *Network)
}

var recycleScenarios = []recycleScenario{
	{name: "failover", build: func() *Network { // TestLocalFailoverOnLinkDown's
		n := chainNet()
		n.Link(0, 2).Down()
		return n
	}},
	{name: "ring", build: func() *Network { // TestRingFallbackWhenNoDirectISL's
		n := NewNetwork()
		for id, c := range map[int]int{0: 10, 1: 10, 3: 20} {
			n.AddSatellite(id, c)
		}
		n.Connect(1, 3, 0.005)
		n.Connect(0, 1, 0.001)
		n.SetRing([]int{0, 1})
		return n
	}},
	{name: "buffer", build: func() *Network { // TestBufferWhenRingBroken's
		n := chainNet()
		n.Link(0, 2).Down()
		n.Link(0, 1).Down()
		return n
	}, repair: func(n *Network) {
		n.Link(0, 2).Up()
		n.FlushBuffers()
	}},
}

// runRecycleTraffic sends seeded bursts through sc's network and returns what
// the hooks saw. With decode set, every packet is encoded and decoded at
// ingress, so the network recycles it after its hook; it also returns how
// many of those packets reused one delivered or dropped before.
func runRecycleTraffic(t *testing.T, sc recycleScenario, seed int64, decode bool) (out []outcome, reused int) {
	rng := rand.New(rand.NewSource(seed))
	n := sc.build()
	var cells []int
	for _, s := range n.order {
		if !slices.Contains(cells, s.Cell) {
			cells = append(cells, s.Cell)
		}
	}
	note := func(s *Satellite, p *Packet, reason string) {
		out = append(out, outcome{s.ID, p.Base.Seq, reason, n.Sim.Now(), p.SentAt,
			slices.Clone(p.HopTrace), string(p.Payload), p.Geo().SegmentsLeft})
	}
	n.OnDeliver = func(s *Satellite, p *Packet) { note(s, p, "") }
	n.OnDrop = func(s *Satellite, p *Packet, reason string) { note(s, p, reason) }
	seen := map[*Packet]bool{}
	var seq uint32
	for burst := 0; burst < 8; burst++ {
		for k := 0; k < 16; k++ {
			route := make([]int, 1+rng.Intn(3))
			for i := range route {
				route[i] = cells[rng.Intn(len(cells))]
			}
			payload := make([]byte, rng.Intn(3)*rng.Intn(100))
			rng.Read(payload)
			p, err := NewGeoPacket(7, route, 1, seq, payload)
			if err != nil {
				t.Fatal(err)
			}
			seq++
			if rng.Intn(4) == 0 {
				p.Base.HopLimit = uint8(rng.Intn(4))
			}
			if decode {
				wire, err := p.Encode()
				if err != nil {
					t.Fatal(err)
				}
				if p, err = Decode(wire); err != nil {
					t.Fatal(err)
				}
				if seen[p] {
					reused++
				}
				seen[p] = true
			}
			n.Inject(n.order[rng.Intn(len(n.order))].ID, p)
		}
		n.Sim.Run(n.Sim.Now() + 0.05)
	}
	if sc.repair != nil {
		sc.repair(n)
	}
	n.Sim.Run(n.Sim.Now() + 1)
	return out, reused
}

// Recycling is invisible to the traffic: the same seeded bursts through the
// failover, ring and buffer networks give the same deliveries and drops —
// satellite, time, Seq, SentAt, hop trace, payload — whether the packets are
// built by NewGeoPacket and kept by the caller, or decoded at ingress and
// recycled by the network from one burst to the next.
func TestDecodedPacketsForwardLikeBuiltOnes(t *testing.T) {
	for _, sc := range recycleScenarios {
		for seed := int64(1); seed <= 5; seed++ {
			built, _ := runRecycleTraffic(t, sc, seed, false)
			decoded, reused := runRecycleTraffic(t, sc, seed, true)
			delivered, dropped := 0, 0
			for _, o := range built {
				if o.reason == "" {
					delivered++
				} else {
					dropped++
				}
			}
			if delivered == 0 || dropped == 0 {
				t.Errorf("%s seed %d: %d delivered, %d dropped: the traffic needs both", sc.name, seed, delivered, dropped)
			}
			if !reflect.DeepEqual(built, decoded) {
				i := 0
				for i < min(len(built), len(decoded)) && reflect.DeepEqual(built[i], decoded[i]) {
					i++
				}
				t.Errorf("%s seed %d: %d outcomes built, %d decoded, the first to differ is #%d:\nbuilt   %v\ndecoded %v",
					sc.name, seed, len(built), len(decoded), i, built[i:min(i+1, len(built))], decoded[i:min(i+1, len(decoded))])
			}
			if reused == 0 && !raceEnabled {
				t.Errorf("%s seed %d: no decoded packet reused a released one", sc.name, seed)
			}
		}
	}
}

// TestIngressAllocationBudget: past Encode, the ledger's ingress — decode
// the terminal's bytes, inject, forward over chainNet's three hops, deliver
// — allocates nothing once warm. The delivered packet and its hop trace go
// back to the pool Decode draws on.
func TestIngressAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled packets on purpose")
	}
	n := chainNet()
	delivered := 0
	n.OnDeliver = func(s *Satellite, p *Packet) {
		if s.ID == 4 && slices.Equal(p.HopTrace, []int{0, 2, 4}) && string(p.Payload) == "payload" {
			delivered++
		}
	}
	p, err := NewGeoPacket(99, []int{20, 30}, 1, 0, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	wire, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ingress := func() {
		q, err := Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		n.Inject(0, q)
		n.Sim.Run(n.Sim.Now() + 1)
	}
	if got := testing.AllocsPerRun(100, ingress); got != 0 {
		t.Errorf("a warm decode → inject → delivery allocates %v objects, budget 0", got)
	}
	if delivered != 101 {
		t.Errorf("delivered %d of 101 along 0 → 2 → 4", delivered)
	}
}

// TestTerminalAllocationBudget: the ledger's whole per-packet path once warm
// — NewGeoPacket, Encode, Decode, inject, forward over chainNet's three hops,
// deliver — allocates nothing: NewGeoPacket's packet, segment list and all,
// stays on terminal's stack; Encode fills the frame the last delivery gave
// back, Decode takes that frame over and draws its packet from the pool.
func TestTerminalAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled packets on purpose")
	}
	n := chainNet()
	payload := make([]byte, 1200)
	delivered := 0
	n.OnDeliver = func(s *Satellite, p *Packet) {
		if s.ID == 4 && slices.Equal(p.HopTrace, []int{0, 2, 4}) && bytes.Equal(p.Payload, payload) {
			delivered++
		}
	}
	route := []int{20, 30}
	terminal := func() {
		p, err := NewGeoPacket(99, route, 1, 0, payload)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		q, err := Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		n.Inject(0, q)
		n.Sim.Run(n.Sim.Now() + 1)
	}
	if objects, bytes := allocsPerRun(100, terminal); objects != 0 || bytes != 0 {
		t.Errorf("a warm NewGeoPacket → Encode → Decode → inject → delivery allocates %v objects, %v B, budget 0, 0 B", objects, bytes)
	}
	if delivered != 101 {
		t.Errorf("delivered %d of 101 along 0 → 2 → 4", delivered)
	}
}

// ringNet is cell 10's gateway ring 0 → 1 → … → 10 → 0, of which only
// satellite 10 holds an ISL to cell 20 (satellite 11): a route of one segment
// takes twelve hops, past a hop trace's first capacity.
func ringNet() *Network {
	n := NewNetwork()
	ring := make([]int, 11)
	for id := range ring {
		ring[id] = id
		n.AddSatellite(id, 10)
	}
	n.AddSatellite(11, 20)
	for id := range ring {
		n.Connect(id, (id+1)%len(ring), 0.001)
	}
	n.Connect(10, 11, 0.005)
	n.SetRing(ring)
	return n
}

// TestLongRouteAllocatesNothing: a decoded packet whose hop trace outgrows
// its first capacity — delivered after twelve hops, or dropped at its hop
// limit after ten — allocates nothing once warm: its trace grows into
// storage from the network's free lists, and its delivery or drop returns it.
func TestLongRouteAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled packets on purpose")
	}
	for _, tc := range []struct {
		name     string
		hopLimit uint8
		trace    int
		reason   string
	}{
		{"delivery", 64, 12, ""},
		{"hop-limit drop", 9, 10, "hop limit"},
	} {
		n := ringNet()
		var outcomes []string
		note := func(s *Satellite, p *Packet, reason string) {
			if want := tc.trace; len(p.HopTrace) != want || p.HopTrace[want-1] != s.ID || reason != tc.reason {
				outcomes = append(outcomes, fmt.Sprintf("at %d for %q along %v", s.ID, reason, p.HopTrace))
			}
		}
		n.OnDeliver = func(s *Satellite, p *Packet) { note(s, p, "") }
		n.OnDrop = note
		p, err := NewGeoPacket(99, []int{20}, 1, 0, []byte("payload"))
		if err != nil {
			t.Fatal(err)
		}
		p.Base.HopLimit = tc.hopLimit
		wire, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		ingress := func() {
			q, err := Decode(wire)
			if err != nil {
				t.Fatal(err)
			}
			n.Inject(0, q)
			n.Sim.Run(n.Sim.Now() + 1)
		}
		if got := testing.AllocsPerRun(100, ingress); got != 0 {
			t.Errorf("%s: a warm decoded packet's %d hops allocate %v objects, budget 0", tc.name, tc.trace, got)
		}
		if len(outcomes) > 0 {
			t.Errorf("%s: %d packets ended otherwise, the first %s", tc.name, len(outcomes), outcomes[0])
		}
	}

	// Bursts of decoded packets, one in four on the twelve-hop route and the
	// rest entering at satellite 10, two hops from delivery, with the packet
	// pool emptied between bursts as a collection empties it: once the first
	// burst has filled the free lists, the traces that grow past the first
	// capacity make no storage. Each packet's first capacity comes with it.
	n := ringNet()
	delivered := 0
	n.OnDeliver = func(*Satellite, *Packet) { delivered++ }
	n.OnDrop = func(s *Satellite, p *Packet, reason string) { t.Errorf("dropped at %d: %s", s.ID, reason) }
	burst := func() {
		for i := 0; i < 64; i++ {
			p, err := NewGeoPacket(99, []int{20}, 1, uint32(i), nil)
			if err != nil {
				t.Fatal(err)
			}
			wire, err := p.Encode()
			if err != nil {
				t.Fatal(err)
			}
			q, err := Decode(wire)
			if err != nil {
				t.Fatal(err)
			}
			if i%4 == 0 {
				n.Inject(0, q)
			} else {
				n.Inject(10, q)
			}
		}
		n.Sim.Run(n.Sim.Now() + 1)
		runtime.GC()
		runtime.GC()
	}
	burst()
	warm := n.traces.made
	for range 5 {
		burst()
	}
	if n.traces.made != warm || delivered != 6*64 {
		t.Errorf("five warm bursts made %d traces (%d in the first), delivered %d of %d", n.traces.made-warm, warm, delivered, 6*64)
	}
}

// TestFlushBuffersRebuffersEachPacketOnce: a flush while satellite 0 is still
// cut off buffers each of its packets there again, exactly once and in order,
// though it appends to the buffer it is flushing; the repair's flush then
// delivers each exactly once.
func TestFlushBuffersRebuffersEachPacketOnce(t *testing.T) {
	n := chainNet()
	n.Link(0, 2).Down()
	n.Link(0, 1).Down()
	delivered := map[uint32]int{}
	n.OnDeliver = func(_ *Satellite, p *Packet) { delivered[p.Base.Seq]++ }
	var sent []*Packet
	for seq := range uint32(5) {
		p, err := NewGeoPacket(99, []int{20, 30}, 1, seq, nil)
		if err != nil {
			t.Fatal(err)
		}
		n.Inject(0, p)
		sent = append(sent, p)
	}
	s := n.Sats[0]
	n.FlushBuffers()
	if !slices.Equal(s.Buffer, sent) || s.Buffered != 10 {
		t.Fatalf("after a flush without repair: buffer %v, %d buffered in all; want the 5 packets in order, 10", s.Buffer, s.Buffered)
	}
	n.Link(0, 2).Up()
	n.FlushBuffers()
	n.Sim.Run(1)
	if len(s.Buffer) != 0 || len(delivered) != 5 {
		t.Fatalf("after the repair: %d still buffered, %d of 5 delivered", len(s.Buffer), len(delivered))
	}
	for seq, k := range delivered {
		if k != 1 {
			t.Errorf("packet %d delivered %d times", seq, k)
		}
	}
}

// TestWarmFlushAllocatesNothing: a flush that buffers every packet again
// takes the satellite's new buffer storage from the network's free lists,
// where the flushed buffer goes back.
func TestWarmFlushAllocatesNothing(t *testing.T) {
	n := chainNet()
	n.Link(0, 2).Down()
	n.Link(0, 1).Down()
	for seq := range uint32(20) {
		p, err := NewGeoPacket(99, []int{20, 30}, 1, seq, nil)
		if err != nil {
			t.Fatal(err)
		}
		p.Base.HopLimit = 255
		n.Inject(0, p)
	}
	n.FlushBuffers()
	if got := testing.AllocsPerRun(100, n.FlushBuffers); got != 0 {
		t.Errorf("a warm flush round allocates %v objects, budget 0", got)
	}
	if s := n.Sats[0]; len(s.Buffer) != 20 {
		t.Errorf("%d packets buffered after the flushes, want 20", len(s.Buffer))
	}
}

// TestWarmFaultRoundMakesNothing runs one fault round twice on one network,
// as the ledger's forward-mix does: a 40-member ring in cell 10 whose only
// gateway to cell 20, member 0, loses its ISL mid-flow; every packet still
// on the ring walks a full circle and buffers where it entered, a repair
// link from member 20 lands and the flush sends them on, each round the ring
// once more, then the topology is put back and flushed again. The repair's
// flush hands back far more than 1,024 traces of 64 and 128 entries at once;
// the second round takes all its traces and buffers from what the first
// handed back.
func TestWarmFaultRoundMakesNothing(t *testing.T) {
	const members, packets, gw = 40, 2000, 40
	n := NewNetwork()
	ring := make([]int, members)
	for id := range ring {
		ring[id] = id
		n.AddSatellite(id, 10)
	}
	n.AddSatellite(gw, 20)
	for id := range ring {
		n.Connect(id, (id+1)%members, 0.001)
	}
	n.SetRing(ring)
	n.Connect(0, gw, 0.005)

	var delivered, grown, longest int
	n.OnDeliver = func(_ *Satellite, p *Packet) {
		delivered++
		if len(p.HopTrace) > listBase {
			grown++
		}
		longest = max(longest, len(p.HopTrace))
	}
	n.OnDrop = func(s *Satellite, _ *Packet, reason string) { t.Errorf("dropped at %d: %s", s.ID, reason) }
	run := func() { n.Sim.Run(n.Sim.Now() + 1) }
	round := func() (flushed int) {
		for i := range packets {
			p, err := NewGeoPacket(99, []int{20}, 1, uint32(i), nil)
			if err != nil {
				t.Fatal(err)
			}
			p.Base.HopLimit = 255
			wire, err := p.Encode()
			if err != nil {
				t.Fatal(err)
			}
			q, err := Decode(wire)
			if err != nil {
				t.Fatal(err)
			}
			n.Inject(i%members, q)
		}
		n.Sim.Run(n.Sim.Now() + 0.01)
		n.Link(0, gw).Down()
		run()
		arrays := map[**Packet]int{}
		for _, s := range n.order {
			if cap(s.Buffer) == 0 {
				continue
			}
			a := unsafe.SliceData(s.Buffer[:cap(s.Buffer)])
			if other, ok := arrays[a]; ok {
				t.Fatalf("satellites %d and %d buffer in one array", other, s.ID)
			}
			arrays[a] = s.ID
		}
		if len(arrays) < members/2 {
			t.Fatalf("%d satellites buffer, want most of the ring's %d", len(arrays), members)
		}
		n.EnsureLink(20, gw, 0.005)
		before := grown
		n.FlushBuffers()
		run()
		flushed = grown - before
		n.Link(20, gw).Down()
		n.Link(0, gw).Up()
		n.FlushBuffers()
		run()
		return flushed
	}

	flushed := round()
	traces, bufs := n.traces.made, n.bufs.made
	if flushed <= 1024 || longest <= 2*listBase {
		t.Fatalf("the repair's flush handed back %d grown traces, the longest %d entries; want over 1,024 and over %d", flushed, longest, 2*listBase)
	}
	round()
	if made := n.traces.made - traces; made != 0 {
		t.Errorf("the warm round made %d traces (%d in the first)", made, traces)
	}
	if made := n.bufs.made - bufs; made != 0 {
		t.Errorf("the warm round made %d buffer arrays (%d in the first)", made, bufs)
	}
	var lost int64
	for _, l := range n.links {
		lost += l.LostInFlight
	}
	if int64(delivered)+lost != 2*packets {
		t.Errorf("%d delivered and %d lost in flight of %d", delivered, lost, 2*packets)
	}
}
