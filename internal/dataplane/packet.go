// Package dataplane implements TinyLEO's geographic segment anycast data
// plane (paper §4.3): an SRv6-style segment routing header whose segments
// are geographic cells rather than node addresses, a per-satellite
// forwarder that delivers packets segment by segment via any satellite
// covering the next cell, an intra-cell gateway-ring fallback, local
// failover around dead ISLs, and buffering when a ring is partitioned.
// Satellite.Receive is the one forwarding path; Anycast, behind the Router
// seam, decides each hop (Figure 19's routing-table baseline plugs in there
// from internal/baseline).
//
// The wire format follows the layered-decoding discipline of gopacket:
// each header type owns its Marshal/Unmarshal pair, headers chain via a
// NextHeader byte, and decoding is zero-allocation-on-error with explicit
// truncation checks.
package dataplane

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"unsafe"
)

// Header type identifiers (the NextHeader byte).
const (
	NextHeaderNone       = 0x00
	NextHeaderGeoSegment = 0x2B // mirrors IPv6's routing-header protocol 43
	NextHeaderPayload    = 0x3B // no-next-header, mirrors IPv6's 59
)

// Version is the wire-format version.
const Version = 1

// BaseHeaderLen is the fixed encoded size of BaseHeader.
const BaseHeaderLen = 20

// BaseHeader is the fixed per-packet header (an IPv6-like shim).
type BaseHeader struct {
	Ver        uint8
	NextHeader uint8
	HopLimit   uint8
	Flags      uint8
	SrcNode    uint32 // originating node (satellite or terminal) ID
	DstCell    uint16 // final destination geographic cell
	FlowID     uint32
	Seq        uint32
	PayloadLen uint16
}

// FlagControl is the Flags bit marking control-plane packets (failure
// reports etc.).
const FlagControl = 1 << 0

// Marshal appends the encoded header to dst and returns the result.
func (h *BaseHeader) Marshal(dst []byte) []byte {
	var b [BaseHeaderLen]byte
	b[0] = h.Ver
	b[1] = h.NextHeader
	b[2] = h.HopLimit
	b[3] = h.Flags
	binary.BigEndian.PutUint32(b[4:], h.SrcNode)
	binary.BigEndian.PutUint16(b[8:], h.DstCell)
	binary.BigEndian.PutUint32(b[10:], h.FlowID)
	binary.BigEndian.PutUint32(b[14:], h.Seq)
	binary.BigEndian.PutUint16(b[18:], h.PayloadLen)
	return append(dst, b[:]...)
}

// ErrTruncated reports a buffer shorter than the header it should hold.
var ErrTruncated = errors.New("dataplane: truncated packet")

// ErrVersion reports an unsupported wire version.
var ErrVersion = errors.New("dataplane: unsupported version")

// Unmarshal decodes the header from b, returning the remaining bytes.
func (h *BaseHeader) Unmarshal(b []byte) ([]byte, error) {
	if len(b) < BaseHeaderLen {
		return nil, fmt.Errorf("%w: base header needs %d bytes, have %d", ErrTruncated, BaseHeaderLen, len(b))
	}
	h.Ver = b[0]
	if h.Ver != Version {
		return nil, fmt.Errorf("%w: %d", ErrVersion, h.Ver)
	}
	h.NextHeader = b[1]
	h.HopLimit = b[2]
	h.Flags = b[3]
	h.SrcNode = binary.BigEndian.Uint32(b[4:])
	h.DstCell = binary.BigEndian.Uint16(b[8:])
	h.FlowID = binary.BigEndian.Uint32(b[10:])
	h.Seq = binary.BigEndian.Uint32(b[14:])
	h.PayloadLen = binary.BigEndian.Uint16(b[18:])
	return b[BaseHeaderLen:], nil
}

// GeoSegmentHeader is the geographic segment routing header (§4.3): the
// ordered list of geographic cells the packet must traverse, with
// SegmentsLeft counting down like SRv6's segments-left field. Segments are
// stored in travel order (segment 0 is the first hop cell).
type GeoSegmentHeader struct {
	NextHeader   uint8
	SegmentsLeft uint8
	Segments     []uint16
}

// MaxSegments bounds the segment list (fits the uint8 count field).
const MaxSegments = 255

// EncodedLen returns the header's wire size.
func (g *GeoSegmentHeader) EncodedLen() int { return 4 + 2*len(g.Segments) }

// Marshal appends the encoded header to dst.
func (g *GeoSegmentHeader) Marshal(dst []byte) ([]byte, error) {
	if err := g.check(); err != nil {
		return nil, err
	}
	dst = append(dst, g.NextHeader, g.SegmentsLeft, uint8(len(g.Segments)), 0)
	var b [2]byte
	for _, s := range g.Segments {
		binary.BigEndian.PutUint16(b[:], s)
		dst = append(dst, b[0], b[1])
	}
	return dst, nil
}

// check reports a header Marshal cannot encode.
func (g *GeoSegmentHeader) check() error {
	if len(g.Segments) > MaxSegments {
		return fmt.Errorf("dataplane: %d segments exceed max %d", len(g.Segments), MaxSegments)
	}
	if int(g.SegmentsLeft) > len(g.Segments) {
		return fmt.Errorf("dataplane: segments-left %d > %d segments", g.SegmentsLeft, len(g.Segments))
	}
	return nil
}

// Unmarshal decodes the header, returning the remaining bytes. The list goes
// into g.Segments' own storage when that has room, else into a new slice.
func (g *GeoSegmentHeader) Unmarshal(b []byte) ([]byte, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: geo segment header prefix", ErrTruncated)
	}
	g.NextHeader = b[0]
	g.SegmentsLeft = b[1]
	n := int(b[2])
	if len(b) < 4+2*n {
		return nil, fmt.Errorf("%w: %d segments need %d bytes, have %d", ErrTruncated, n, 4+2*n, len(b))
	}
	if int(g.SegmentsLeft) > n {
		return nil, fmt.Errorf("dataplane: segments-left %d > %d segments", g.SegmentsLeft, n)
	}
	g.resize(n)
	for i := 0; i < n; i++ {
		g.Segments[i] = binary.BigEndian.Uint16(b[4+2*i:])
	}
	return b[4+2*n:], nil
}

// resize makes Segments n long and no roomier, in its own storage if that fits.
func (g *GeoSegmentHeader) resize(n int) {
	if cap(g.Segments) < n {
		g.Segments = make([]uint16, n)
	}
	g.Segments = g.Segments[:n:n]
}

// CurrentSegment returns the cell the packet is currently heading to, or
// -1 when the segment list is exhausted.
func (g *GeoSegmentHeader) CurrentSegment() int {
	if g.SegmentsLeft == 0 {
		return -1
	}
	idx := len(g.Segments) - int(g.SegmentsLeft)
	return int(g.Segments[idx])
}

// Advance consumes the current segment (after the packet reaches its cell).
func (g *GeoSegmentHeader) Advance() {
	if g.SegmentsLeft > 0 {
		g.SegmentsLeft--
	}
}

// Packet is the in-memory form the emulator forwards (headers stay decoded
// between hops; the wire form is exercised by Encode/Decode and used across
// the southbound TCP path).
//
// A packet from NewGeoPacket belongs to its caller, who may read it after
// delivery. A packet from Decode belongs to the network once injected: the
// forwarder recycles it, its hop trace and the frame its Payload lies in when
// its delivery or drop hook returns, so a hook that keeps anything of it
// (HopTrace, Payload, the packet itself) copies it.
type Packet struct {
	Base    BaseHeader
	Geo     *GeoSegmentHeader // nil when the wire form carried no segment list
	Payload []byte

	// Emulation metadata (not on the wire).
	SentAt   float64
	HopTrace []int // satellite IDs traversed

	// Anycast's ring-pass state: the member (ID+1, 0 = none) where the packet
	// first fell back to the ring while ringLeft segments were left.
	ringFrom int32
	ringLeft uint8
	// pooled marks a packet Decode drew from packetPool, for release, and
	// frame names the registry frame its Payload lies in (0 = none). They sit
	// in ringLeft's padding: a Packet stays in the 96-byte size class.
	pooled bool
	frame  frameNo
}

const (
	// inlineSegments covers every route the figures and the ledger forward
	// (6 cells at most) within a 48-byte geoBox.
	inlineSegments = 8
	// hopTraceCap is HopTrace's first capacity (the ledger's mean is 7.6 hops).
	hopTraceCap = 8
	// maxPayload is the most PayloadLen can say.
	maxPayload = math.MaxUint16
)

// geoBox is what a packet's Geo points to: the segment header and a route's
// list up to inlineSegments cells, one 48-byte object outside the packet. A
// packet that points into itself always lives on the heap; one that points
// here stays on its builder's stack when the builder does not keep it.
type geoBox struct {
	hdr  GeoSegmentHeader
	segs [inlineSegments]uint16
}

// header returns the box's header, reset, with the box's list storage.
func (b *geoBox) header() *GeoSegmentHeader {
	b.hdr = GeoSegmentHeader{Segments: b.segs[:0]}
	return &b.hdr
}

// pooledPacket is what packetPool holds: a packet Decode hands out and the box
// it decodes the packet's segment list into, kept together across reuse.
type pooledPacket struct {
	Packet
	box geoBox
}

// packetPool holds the packets Decode hands out, reset by release.
var packetPool = sync.Pool{New: func() any { return new(pooledPacket) }}

// release returns a packet Decode made, and its frame, to their free lists,
// and is a no-op for any other packet. Every field is reset, so the pool pins
// no frame and a packet released twice returns its packet and frame once: a
// delivered packet injected again is dropped for "no route". Only a hop trace
// of the first capacity is kept. A packet goes back to the pool only while
// its Geo points at its own box: a copy of a decoded packet, or one whose
// Geo was replaced or carried no segment list, is left to the collector.
func (p *Packet) release() {
	if !p.pooled {
		return
	}
	if p.frame != 0 {
		frames.put(p)
	}
	trace := p.HopTrace
	if cap(trace) != hopTraceCap {
		trace = nil
	}
	// Integers, not pointers: p is known to be a pooledPacket's only once
	// they match.
	own := uintptr(unsafe.Pointer(p.Geo)) == uintptr(unsafe.Pointer(p))+unsafe.Offsetof(pooledPacket{}.box)
	*p = Packet{HopTrace: trace[:0]}
	if own {
		packetPool.Put((*pooledPacket)(unsafe.Pointer(p)))
	}
}

// errPayloadSize reports a payload PayloadLen cannot describe.
func errPayloadSize(n int) error {
	return fmt.Errorf("dataplane: payload of %d bytes exceeds max %d", n, maxPayload)
}

// Encode produces the full wire form, in a recycled frame. The bytes are the
// caller's until it passes them to Decode, which takes the frame over; after
// that they belong to the network, which reuses the frame once the decoded
// packet is delivered or dropped.
func (p *Packet) Encode() ([]byte, error) {
	if len(p.Payload) > maxPayload {
		return nil, errPayloadSize(len(p.Payload))
	}
	if p.Geo != nil {
		// Before the frame is taken: a longer list would outgrow every size.
		if err := p.Geo.check(); err != nil {
			return nil, err
		}
	}
	p.Base.PayloadLen = uint16(len(p.Payload))
	if p.Geo != nil {
		p.Base.NextHeader = NextHeaderGeoSegment
	} else {
		p.Base.NextHeader = NextHeaderPayload
	}
	n := p.WireSize()
	out := p.Base.Marshal(frames.pend(n)[:0])
	if p.Geo != nil {
		out, _ = p.Geo.Marshal(out) // check passed above
	}
	return append(out, p.Payload...)[:n:n], nil
}

// Decode parses a wire-form packet into a recycled one. If b is the frame
// Encode returned last, the packet takes it over and its Payload lies in b;
// any other bytes are copied, so the packet shares no storage with bytes it
// does not own. An empty payload decodes to nil. Once injected the packet
// belongs to the network, and a Network.OnDeliver or OnDrop hook reads it
// only for the length of the call.
func Decode(b []byte) (*Packet, error) {
	pp := packetPool.Get().(*pooledPacket)
	if err := pp.decode(b); err != nil {
		pp.Packet = Packet{HopTrace: pp.HopTrace[:0]}
		packetPool.Put(pp)
		return nil, err
	}
	frames.own(&pp.Packet, b)
	return &pp.Packet, nil
}

// decode resets pp's packet and fills it from b, its segment list in pp's box.
func (pp *pooledPacket) decode(b []byte) error {
	// release reset the packet, but a caller that wrongly injects a delivered
	// packet again writes its hop trace while it is pooled.
	p := &pp.Packet
	*p = Packet{HopTrace: p.HopTrace[:0], pooled: true}
	rest, err := p.Base.Unmarshal(b)
	if err != nil {
		return err
	}
	switch p.Base.NextHeader {
	case NextHeaderGeoSegment:
		p.Geo = pp.box.header()
		if rest, err = p.Geo.Unmarshal(rest); err != nil {
			return err
		}
	case NextHeaderPayload, NextHeaderNone:
	default:
		return fmt.Errorf("dataplane: unknown next header 0x%02x", p.Base.NextHeader)
	}
	if len(rest) < int(p.Base.PayloadLen) {
		return fmt.Errorf("%w: payload needs %d bytes, have %d", ErrTruncated, p.Base.PayloadLen, len(rest))
	}
	if p.Base.PayloadLen > 0 {
		p.Payload = rest[:p.Base.PayloadLen]
	}
	return nil
}

// WireSize returns the encoded size without allocating.
func (p *Packet) WireSize() int {
	n := BaseHeaderLen + len(p.Payload)
	if p.Geo != nil {
		n += p.Geo.EncodedLen()
	}
	return n
}

// NewGeoPacket builds a geo-segment packet following route (cell IDs,
// including the destination cell as the last segment). It inlines, and its
// packet does not point into itself, so a caller that builds, encodes and
// drops a packet keeps it on its stack; only the segment box is allocated.
func NewGeoPacket(src uint32, route []int, flow, seq uint32, payload []byte) (*Packet, error) {
	return new(Packet).initGeo(src, route, flow, seq, payload)
}

// initGeo fills NewGeoPacket's zero packet p and returns it, or nil and the
// error. It is too large to inline, which keeps NewGeoPacket small enough to.
func (p *Packet) initGeo(src uint32, route []int, flow, seq uint32, payload []byte) (*Packet, error) {
	if len(route) == 0 {
		return nil, errors.New("dataplane: empty route")
	}
	if len(route) > MaxSegments {
		return nil, fmt.Errorf("dataplane: route of %d cells exceeds max %d", len(route), MaxSegments)
	}
	if len(payload) > maxPayload {
		return nil, errPayloadSize(len(payload))
	}
	g := new(geoBox).header()
	g.SegmentsLeft = uint8(len(route))
	g.resize(len(route))
	for i, c := range route {
		if c < 0 || c > 0xFFFF {
			return nil, fmt.Errorf("dataplane: cell %d out of uint16 range", c)
		}
		g.Segments[i] = uint16(c)
	}
	p.Base = BaseHeader{
		Ver:      Version,
		HopLimit: 64,
		SrcNode:  src,
		DstCell:  uint16(route[len(route)-1]),
		FlowID:   flow,
		Seq:      seq,
	}
	p.Geo, p.Payload = g, payload
	return p, nil
}
