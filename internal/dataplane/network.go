package dataplane

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/netem"
)

// Network is an emulated satellite data plane: satellites joined by netem
// links, forwarding geo-segment packets hop by hop as its Router decides.
type Network struct {
	Sim  *netem.Sim
	Sats map[int]*Satellite
	// Router is the next-hop seam: Anycast, unless a baseline replaced it.
	Router Router
	// OnDeliver fires when a packet reaches a satellite covering its final
	// segment cell (i.e. is handed to the ground segment). A packet from
	// Decode is recycled, with its payload's frame and its hop trace, when
	// the hook returns: the hook copies what it keeps.
	OnDeliver func(sat *Satellite, p *Packet)
	// OnDrop fires when a packet is dropped (hop limit, no route, queue),
	// under OnDeliver's rule for a packet from Decode.
	OnDrop func(sat *Satellite, p *Packet, reason string)

	order  []*Satellite // Sats by ascending ID: FlushBuffers' order, the same on every run
	links  []*netem.Link
	traces freeLists[int]     // hop traces past the first capacity
	bufs   freeLists[*Packet] // Satellite.Buffer storage
	// Defaults for new links.
	ISLRateBps float64
	QueueLimit int
}

// ISLRateBpsDefault is the paper's 200 Gbps laser ISL.
const ISLRateBpsDefault = 200e9

// NewNetwork creates an empty network on a fresh simulator.
func NewNetwork() *Network {
	n := &Network{
		Sim:        netem.NewSim(),
		Sats:       map[int]*Satellite{},
		Router:     Anycast{},
		ISLRateBps: ISLRateBpsDefault,
		QueueLimit: 4096,
	}
	// A packet lost in flight is counted by its link (LostInFlight), not as
	// a drop: it only goes back to the network.
	n.Sim.OnLost = func(payload any) { n.recycle(payload.(*Packet)) }
	return n
}

// freeLists are a network's free lists of forwarding storage, kept at their
// high-water mark as netem.Sim keeps its event heap: list k holds every
// emptied slice of capacity listBase<<k handed back, so it never holds more
// than were in use at once, and a repeat of traffic it has seen takes all its
// storage from them. Only the network's own forwarding touches the lists, so
// they need no lock.
type freeLists[T any] struct {
	free [storageClasses][][]T
	made int // storage grow made because its list was empty
}

const (
	// listBase is the first listed capacity, twice a trace's first.
	listBase = 2 * hopTraceCap
	// storageClasses covers capacities 16 to 2^27: past the last, storage
	// grows by append and goes on no list.
	storageClasses = 24
)

// grow returns s's contents in storage of the next capacity, from its list
// when it has one; s's storage stays the caller's.
func (f *freeLists[T]) grow(s []T) []T {
	k := bits.Len(uint(cap(s) / listBase))
	if k >= storageClasses {
		return slices.Grow(s, 1)
	}
	var next []T
	if l := f.free[k]; len(l) > 0 {
		next, l[len(l)-1] = l[len(l)-1], nil
		f.free[k] = l[:len(l)-1]
	} else {
		next = make([]T, 0, listBase<<k)
		f.made++
	}
	return append(next, s...)
}

// put files s's storage, emptied, on the list of its capacity, unless that
// is no list's. The caller clears what s must not keep alive.
func (f *freeLists[T]) put(s []T) {
	k := bits.TrailingZeros(uint(cap(s) / listBase))
	if k >= storageClasses || cap(s) != listBase<<k {
		return
	}
	f.free[k] = append(f.free[k], s[:0])
}

// growTrace moves p's full hop trace into storage of the next capacity. A
// trace's first capacity is on no list: a decoded packet's is part of the
// packet (pooledPacket.trace), and a caller's packet gets its own made. A
// decoded packet's outgrown storage goes back on the lists; a caller's packet
// keeps what it outgrows.
func (n *Network) growTrace(p *Packet) {
	if cap(p.HopTrace) < hopTraceCap {
		p.HopTrace = append(make([]int, 0, hopTraceCap), p.HopTrace...)
		return
	}
	next := n.traces.grow(p.HopTrace)
	if p.decoded() {
		n.traces.put(p.HopTrace)
	}
	p.HopTrace = next
}

// recycle returns a decoded packet, delivered or dropped, to the pool (see
// release), and its hop trace, if it outgrew the packet's own, to the free
// lists. A caller's packet keeps its trace.
func (n *Network) recycle(p *Packet) {
	if p.decoded() {
		n.traces.put(p.HopTrace)
	}
	p.release()
}

// AddSatellite registers a satellite homed to cell.
func (n *Network) AddSatellite(id, cell int) *Satellite {
	s := &Satellite{ID: id, Cell: cell, net: n, RingNext: -1}
	n.Sats[id] = s
	i, found := slices.BinarySearchFunc(n.order, id, func(o *Satellite, id int) int { return o.ID - id })
	if !found {
		n.order = slices.Insert(n.order, i, s)
	}
	n.order[i] = s
	return s
}

// Connect creates an ISL between satellites a and b with one-way
// propagation delay (seconds). Returns the link.
func (n *Network) Connect(a, b int, delay float64) *netem.Link {
	sa, sb := n.Sats[a], n.Sats[b]
	if sa == nil || sb == nil {
		panic(fmt.Sprintf("dataplane: Connect unknown satellites %d-%d", a, b))
	}
	// The receive hook holds both ends, so an arrival looks nothing up.
	l := netem.NewLink(n.Sim, a, b, n.ISLRateBps, delay, n.QueueLimit, func(at, _ int, payload any) {
		if at == a {
			sa.Receive(payload.(*Packet))
		} else {
			sb.Receive(payload.(*Packet))
		}
	})
	sa.setNeighbour(sb, l)
	sb.setNeighbour(sa, l)
	n.links = append(n.links, l)
	return l
}

// EnsureLink returns the ISL between a and b, creating it with the given
// propagation delay if absent and re-raising it with that delay if
// administratively down (the delay it went down with is stale). An up link
// keeps its delay. Control-plane repair uses it to apply topology diffs
// onto a live network without rebuilding it (which would reset link
// statistics).
func (n *Network) EnsureLink(a, b int, delay float64) *netem.Link {
	if l := n.Link(a, b); l != nil {
		if !l.IsUp() {
			l.Delay = delay
			l.Up()
		}
		return l
	}
	return n.Connect(a, b, delay)
}

// Link returns the ISL between a and b, or nil.
func (n *Network) Link(a, b int) *netem.Link {
	if sa := n.Sats[a]; sa != nil {
		return sa.link(b)
	}
	return nil
}

// Links returns every ISL in creation order.
func (n *Network) Links() []*netem.Link { return n.links }

// Inject starts a packet at satellite sat (e.g. received from a ground
// terminal) and forwards it. A packet from Decode then belongs to the
// network, which recycles it after delivery or a drop and hands the frame
// its payload lies in back for a later Encode; one from NewGeoPacket stays
// the caller's.
func (n *Network) Inject(sat int, p *Packet) {
	s := n.Sats[sat]
	if s == nil {
		panic(fmt.Sprintf("dataplane: Inject at unknown satellite %d", sat))
	}
	p.SentAt = n.Sim.Now()
	s.Receive(p)
}

// SetRing installs an intra-cell gateway ring: members in cycle order;
// each member's RingNext points at its successor. A nil/short slice clears
// nothing (rings of <2 satellites don't exist).
func (n *Network) SetRing(members []int) {
	if len(members) < 2 {
		return
	}
	for i, id := range members {
		if s := n.Sats[id]; s != nil {
			s.RingNext = members[(i+1)%len(members)]
		}
	}
}

// FlushBuffers re-runs the routing decision for every buffered packet
// (called after the control plane repairs topology, §4.3's "buffered until
// MPC repairs the ring"), satellite by satellite in ascending ID; the
// buffering satellite is already on its trace.
//
// Buffer storage is the network's: a flushed satellite's buffer, its pointers
// cleared, goes back on the network's free lists, and a packet the flush
// buffers again goes into storage the satellite takes from them, not into the
// buffer being flushed, whose later packets are not sent yet.
func (n *Network) FlushBuffers() {
	for _, s := range n.order {
		buf := s.Buffer
		if len(buf) == 0 {
			continue
		}
		s.Buffer = nil
		for _, p := range buf {
			s.forward(p)
		}
		clear(buf)
		n.bufs.put(buf)
	}
}
