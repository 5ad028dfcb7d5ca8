package dataplane

import (
	"slices"
	"strconv"

	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/obs/flightrec"
)

// Data-plane telemetry on the process-wide default registry. These sit on
// the per-packet forwarding path, so they rely on obs instruments costing
// ~1 ns when the registry is disabled (see internal/obs/bench_test.go).
var (
	dpForwarded = obs.Default().Counter("tinyleo_dataplane_forwarded_total")
	dpDelivered = obs.Default().Counter("tinyleo_dataplane_delivered_total")
	dpBuffered  = obs.Default().Counter("tinyleo_dataplane_buffered_total")
	dpFailovers = obs.Default().Counter("tinyleo_dataplane_failovers_total")
	dpRingHops  = obs.Default().Counter("tinyleo_dataplane_ring_fallback_total")
	dpHops      = obs.Default().Histogram("tinyleo_dataplane_delivery_hops", obs.HopBuckets)

	// dpDropped is keyed by the forwarder's drop reasons; unknown reasons
	// fall back to a registry lookup.
	dpDropped = map[string]*obs.Counter{
		"hop limit":               obs.Default().Counter("tinyleo_dataplane_dropped_total", "reason", "hop limit"),
		"no route":                obs.Default().Counter("tinyleo_dataplane_dropped_total", "reason", "no route"),
		"missing link":            obs.Default().Counter("tinyleo_dataplane_dropped_total", "reason", "missing link"),
		"link down or queue full": obs.Default().Counter("tinyleo_dataplane_dropped_total", "reason", "link down or queue full"),
	}
)

// Satellite is one forwarding node.
type Satellite struct {
	ID   int
	Cell int // home geographic cell

	net      *Network
	nbrs     []neighbour // the ISLs, ascending by peer ID: a hop scans its 2–6 entries, hashing nothing
	RingNext int         // successor on the intra-cell gateway ring, -1 if none

	// Buffer holds packets waiting for control-plane repair (§4.3 worst
	// case: the ring is disconnected), in order of arrival. Its storage is
	// the network's: it comes from the network's free lists and goes back
	// to them when the buffer outgrows it or FlushBuffers empties it. A
	// caller may read it, or set it to nil to discard its packets.
	Buffer []*Packet

	// Stats
	Forwarded int64 // packets sent onward
	Delivered int64 // packets handed to the ground segment here
	Dropped   int64
	Buffered  int64
	RingHops  int64 // forwards that used the ring fallback
	Failovers int64 // forwards that bypassed a down/absent primary link
}

// neighbour is one ISL of a satellite. It holds the peer itself, not the
// peer's cell: a satellite may be re-homed after its links were made.
type neighbour struct {
	id   int
	sat  *Satellite
	link *netem.Link
}

// setNeighbour files l as the ISL to peer, replacing an earlier one.
func (s *Satellite) setNeighbour(peer *Satellite, l *netem.Link) {
	i, found := slices.BinarySearchFunc(s.nbrs, peer.ID, func(nb neighbour, id int) int { return nb.id - id })
	if !found {
		s.nbrs = slices.Insert(s.nbrs, i, neighbour{})
	}
	s.nbrs[i] = neighbour{peer.ID, peer, l}
}

// link returns the ISL to peer, or nil.
func (s *Satellite) link(peer int) *netem.Link {
	for _, nb := range s.nbrs {
		if nb.id == peer {
			return nb.link
		}
	}
	return nil
}

// Verb is what a Router decided to do with one packet at one satellite.
type Verb uint8

const (
	Deliver Verb = iota // hand the packet to the ground segment here
	Forward             // send it over the ISL toward Decision.Peer
	Buffer              // hold it until the control plane repairs topology
	Drop                // discard it for Decision.Reason
)

// Decision is a Router's by-value answer for one packet at one satellite.
type Decision struct {
	Verb     Verb
	Peer     int    // Forward: the ISL peer to send to
	Reason   string // Drop: why
	NextCell int    // Forward, Buffer: the cell the packet is heading to
	Failover bool   // Forward, Buffer: a down ISL toward NextCell was bypassed
	Ring     bool   // Forward: Peer is the ring successor, not a NextCell gateway
}

// Router is the one next-hop seam: given a packet at a satellite, decide
// what happens to it; Satellite.Receive does everything else. Anycast is the
// production router and nothing in production sets another; a scheme compared
// against it (internal/baseline's routing tables) replaces Network.Router.
type Router interface {
	Route(s *Satellite, p *Packet) Decision
}

// Receive processes a packet arriving at (or injected into) the satellite.
//
//tinyleo:hotpath
func (s *Satellite) Receive(p *Packet) {
	if len(p.HopTrace) == cap(p.HopTrace) {
		s.net.growTrace(p)
	}
	p.HopTrace = append(p.HopTrace, s.ID)
	s.forward(p)
}

// forward asks the network's router what happens to p here and does it: the
// hop limit, counters, flight events, hooks and the send, once for every
// router. FlushBuffers re-enters here, so a buffered hop is recorded once.
//
//tinyleo:hotpath
func (s *Satellite) forward(p *Packet) {
	d := s.net.Router.Route(s, p)
	switch d.Verb {
	case Deliver:
		s.Delivered++
		dpDelivered.Inc()
		dpHops.Observe(float64(len(p.HopTrace)))
		if s.net.OnDeliver != nil {
			s.net.OnDeliver(s, p)
		}
		s.net.recycle(p)
		return
	case Drop:
		s.drop(p, d.Reason)
		return
	}
	if p.Base.HopLimit == 0 {
		s.drop(p, "hop limit")
		return
	}
	p.Base.HopLimit--
	if d.Failover {
		s.Failovers++
		dpFailovers.Inc()
		if flightrec.Enabled() {
			if d.Verb == Forward && !d.Ring {
				s.emitEvent("failover", "next_cell", strconv.Itoa(d.NextCell), "via", strconv.Itoa(d.Peer))
			} else {
				s.emitEvent("failover", "next_cell", strconv.Itoa(d.NextCell))
			}
		}
	}
	if d.Verb == Buffer {
		s.Buffered++
		dpBuffered.Inc()
		if flightrec.Enabled() {
			s.emitEvent("buffered", "next_cell", strconv.Itoa(d.NextCell))
		}
		if len(s.Buffer) == cap(s.Buffer) {
			full := s.Buffer
			s.Buffer = s.net.bufs.grow(full)
			clear(full)
			s.net.bufs.put(full)
		}
		s.Buffer = append(s.Buffer, p)
		return
	}
	if d.Ring {
		s.RingHops++
		dpRingHops.Inc()
		if flightrec.Enabled() {
			s.emitEvent("ring_fallback", "next_cell", strconv.Itoa(d.NextCell), "ring_next", strconv.Itoa(d.Peer))
		}
	}
	s.send(d.Peer, p)
}

// Anycast is §4.3's geographic segment anycast, the production router:
// consume the segments this satellite's cell satisfies, deliver on the
// last, else forward to any up gateway of the next cell, else pass
// clockwise along the intra-cell gateway ring, else — the ring is broken, or
// the packet has been all the way round it — buffer.
type Anycast struct{}

// Route implements Router.
//
//tinyleo:hotpath
func (Anycast) Route(s *Satellite, p *Packet) Decision {
	g := p.Geo()
	if g == nil { // Decode legitimately yields a packet with no segment list
		return Decision{Verb: Drop, Reason: "no route"}
	}
	// Consume every segment this satellite's cell satisfies (after anycast
	// shortcuts a route may enter the cell several segments point at).
	for g.CurrentSegment() == s.Cell {
		g.Advance()
	}
	if g.SegmentsLeft == 0 { // this satellite covers the destination cell
		return Decision{Verb: Deliver}
	}
	// Primary: any up ISL to a gateway of the next cell works; pick the
	// lowest peer ID (the first in table order), noting a failover if any
	// ISL toward that cell is down.
	d := Decision{Verb: Forward, Peer: -1, NextCell: g.CurrentSegment()}
	for _, nb := range s.nbrs {
		if nb.sat.Cell != d.NextCell {
			continue
		}
		if !nb.link.IsUp() {
			d.Failover = true
		} else if d.Peer < 0 {
			d.Peer = nb.id
		}
	}
	if d.Peer >= 0 {
		return d
	}
	// Fallback: the ring visits every gateway of this cell, one of which
	// has the ISL toward the next cell (§4.3 delivery guarantee). Back at the
	// member where this segment's ring pass began, none has.
	fresh := p.ringFrom == 0 || p.ringLeft != g.SegmentsLeft
	if l := s.link(s.RingNext); l != nil && l.IsUp() && (fresh || p.ringFrom != int32(s.ID+1)) {
		if fresh {
			p.ringFrom, p.ringLeft = int32(s.ID+1), g.SegmentsLeft
		}
		d.Peer, d.Ring = s.RingNext, true
		return d
	}
	// Worst case, ring disconnected or exhausted: buffer until the MPC
	// repairs (§4.3). The flush gets one more pass round the ring.
	p.ringFrom = 0
	d.Verb = Buffer
	return d
}

// send forwards p over the ISL toward peer, or drops it (down link, full queue).
//
//tinyleo:hotpath
func (s *Satellite) send(peer int, p *Packet) {
	l := s.link(peer)
	if l == nil {
		s.drop(p, "missing link")
		return
	}
	if !l.Send(s.ID, p.WireSize(), p) {
		s.drop(p, "link down or queue full")
		return
	}
	s.Forwarded++
	dpForwarded.Inc()
}

// drop accounts a dropped packet, notifies hooks and recycles it.
//
//tinyleo:hotpath
func (s *Satellite) drop(p *Packet, reason string) {
	s.Dropped++
	if c, ok := dpDropped[reason]; ok {
		c.Inc()
	} else if obs.Default().Enabled() {
		// A router's own reason: the label lookup allocates, so pay it only
		// while telemetry is on.
		obs.Default().Counter("tinyleo_dataplane_dropped_total", "reason", reason).Inc()
	}
	if flightrec.Enabled() {
		s.emitEvent("drop", "reason", reason)
	}
	if s.net.OnDrop != nil {
		s.net.OnDrop(s, p, reason)
	}
	s.net.recycle(p)
}

// emitEvent records a flight-recorder event for this satellite. Call sites
// guard with flightrec.Enabled() BEFORE formatting attributes, so forwarding
// pays one atomic load while recording is off; drops, failovers, ring
// fallbacks and buffering are rare, so the enabled cost is off the common path.
func (s *Satellite) emitEvent(typ string, attrs ...string) {
	flightrec.Emit(flightrec.CompDataplane, typ,
		append([]string{"sat", strconv.Itoa(s.ID), "cell", strconv.Itoa(s.Cell)}, attrs...)...)
}

// Peers returns the satellite's ISL peers in ascending order.
func (s *Satellite) Peers() []int {
	out := make([]int, len(s.nbrs))
	for i, nb := range s.nbrs {
		out[i] = nb.id
	}
	return out
}
