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
// stored in travel order (segment 0 is the first hop cell), in the header
// itself up to inlineSegments cells, else in a slice of exactly their number.
type GeoSegmentHeader struct {
	NextHeader   uint8
	SegmentsLeft uint8
	n            uint8 // the list's length; 0 only in a packet without the header
	inline       [inlineSegments]uint16
	long         []uint16 // the list, when it is longer than inline
}

// MaxSegments bounds the segment list (fits the uint8 count field).
const MaxSegments = 255

// errNoSegments reports a segment list of no cells, which no packet can follow.
var errNoSegments = errors.New("dataplane: empty segment list")

// Segments returns the segment list, in the header's own storage.
func (g *GeoSegmentHeader) Segments() []uint16 {
	if g.n > inlineSegments {
		return g.long
	}
	return g.inline[:g.n:g.n]
}

// EncodedLen returns the header's wire size.
func (g *GeoSegmentHeader) EncodedLen() int { return 4 + 2*int(g.n) }

// Marshal appends the encoded header to dst.
func (g *GeoSegmentHeader) Marshal(dst []byte) ([]byte, error) {
	if err := g.check(); err != nil {
		return nil, err
	}
	dst = append(dst, g.NextHeader, g.SegmentsLeft, g.n, 0)
	var b [2]byte
	for _, s := range g.Segments() {
		binary.BigEndian.PutUint16(b[:], s)
		dst = append(dst, b[0], b[1])
	}
	return dst, nil
}

// check reports a header Marshal cannot encode.
func (g *GeoSegmentHeader) check() error {
	if g.n == 0 {
		return errNoSegments
	}
	if g.SegmentsLeft > g.n {
		return fmt.Errorf("dataplane: segments-left %d > %d segments", g.SegmentsLeft, g.n)
	}
	return nil
}

// Unmarshal decodes the header, returning the remaining bytes.
func (g *GeoSegmentHeader) Unmarshal(b []byte) ([]byte, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: geo segment header prefix", ErrTruncated)
	}
	g.NextHeader = b[0]
	g.SegmentsLeft = b[1]
	n := int(b[2])
	if n == 0 {
		return nil, errNoSegments
	}
	if len(b) < 4+2*n {
		return nil, fmt.Errorf("%w: %d segments need %d bytes, have %d", ErrTruncated, n, 4+2*n, len(b))
	}
	if int(g.SegmentsLeft) > n {
		return nil, fmt.Errorf("dataplane: segments-left %d > %d segments", g.SegmentsLeft, n)
	}
	segs := g.resize(n)
	for i := range segs {
		segs[i] = binary.BigEndian.Uint16(b[4+2*i:])
	}
	return b[4+2*n:], nil
}

// resize makes the list n cells long, 0 < n <= MaxSegments, for its caller to fill.
func (g *GeoSegmentHeader) resize(n int) []uint16 {
	g.n, g.long = uint8(n), nil
	if n > inlineSegments {
		g.long = make([]uint16, n)
	}
	return g.Segments()
}

// CurrentSegment returns the cell the packet is currently heading to, or
// -1 when the segment list is exhausted.
func (g *GeoSegmentHeader) CurrentSegment() int {
	if g.SegmentsLeft == 0 {
		return -1
	}
	return int(g.Segments()[g.n-g.SegmentsLeft])
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
	geo     GeoSegmentHeader // read through Geo
	Payload []byte

	// Emulation metadata (not on the wire).
	SentAt   float64
	HopTrace []int // satellite IDs traversed

	// Anycast's ring-pass state: the member (ID+1, 0 = none) where the packet
	// first fell back to the ring while ringLeft segments were left.
	ringFrom int32
	ringLeft uint8
	// frame names the registry frame Payload lies in (0 = none).
	frame frameNo
	// pooled is the pooledPacket Decode drew the packet from; a copy points at
	// its original, which the pointer keeps alive, so only that is pooled.
	pooled *pooledPacket
}

// Geo returns the packet's segment header, or nil when the packet has none.
func (p *Packet) Geo() *GeoSegmentHeader {
	if p.geo.n == 0 {
		return nil
	}
	return &p.geo
}

const (
	// inlineSegments covers every route the figures and the ledger forward
	// (6 cells at most) inside the packet.
	inlineSegments = 8
	// hopTraceCap is HopTrace's first capacity (the ledger's mean is 7.6 hops).
	hopTraceCap = 8
	// maxPayload is the most PayloadLen can say.
	maxPayload = math.MaxUint16
)

// pooledPacket is what packetPool holds: a packet Decode hands out and the
// hop trace's storage of the first capacity, kept together across reuse.
type pooledPacket struct {
	Packet
	trace [hopTraceCap]int
}

// packetPool holds the packets Decode hands out, reset by release.
var packetPool = sync.Pool{New: func() any { return new(pooledPacket) }}

// release returns a packet Decode made, and its frame, to their free lists,
// and is a no-op for any other packet, a copy of a decoded one included.
// Every field is reset, so the pool pins no frame and a packet released twice
// returns its packet and frame once: a delivered packet injected again is
// dropped for "no route". The hop trace is dropped too: the next decode
// starts it in the packet's own storage.
//
//tinyleo:hotpath
func (p *Packet) release() {
	if !p.decoded() {
		return
	}
	pp := p.pooled
	if p.frame != 0 {
		frames.put(p)
	}
	*p = Packet{}
	packetPool.Put(pp)
}

// decoded reports whether Decode made p: not a copy, not a caller's packet.
func (p *Packet) decoded() bool { return p.pooled != nil && &p.pooled.Packet == p }

// errPayloadSize reports a payload PayloadLen cannot describe.
func errPayloadSize(n int) error {
	return fmt.Errorf("dataplane: payload of %d bytes exceeds max %d", n, maxPayload)
}

// Encode produces the full wire form, in a recycled frame. The bytes are the
// caller's until it passes them to Decode, which takes the frame over; after
// that they belong to the network, which reuses the frame once the decoded
// packet is delivered or dropped.
//
//tinyleo:hotpath
func (p *Packet) Encode() ([]byte, error) {
	if len(p.Payload) > maxPayload {
		return nil, errPayloadSize(len(p.Payload))
	}
	g := p.Geo()
	if g != nil {
		// Before the frame is taken: a refused packet displaces no frame.
		if err := g.check(); err != nil {
			return nil, err
		}
	}
	p.Base.PayloadLen = uint16(len(p.Payload))
	if g != nil {
		p.Base.NextHeader = NextHeaderGeoSegment
	} else {
		p.Base.NextHeader = NextHeaderPayload
	}
	n := p.WireSize()
	out := p.Base.Marshal(frames.pend(n)[:0])
	if g != nil {
		out, _ = g.Marshal(out) // check passed above
	}
	return append(out, p.Payload...)[:n:n], nil
}

// Decode parses a wire-form packet into a recycled one. If b is the frame
// Encode returned last, the packet takes it over and its Payload lies in b;
// any other bytes are copied, so the packet shares no storage with bytes it
// does not own. An empty payload decodes to nil. Once injected the packet
// belongs to the network, and a Network.OnDeliver or OnDrop hook reads it
// only for the length of the call.
//
//tinyleo:hotpath
func Decode(b []byte) (*Packet, error) {
	pp := packetPool.Get().(*pooledPacket)
	if err := pp.decode(b); err != nil {
		pp.Packet = Packet{}
		packetPool.Put(pp)
		return nil, err
	}
	frames.own(&pp.Packet, b)
	return &pp.Packet, nil
}

// decode resets pp's packet and fills it from b.
func (pp *pooledPacket) decode(b []byte) error {
	// release reset the packet, but a caller that wrongly injects a delivered
	// packet again writes its hop trace while it is pooled.
	p := &pp.Packet
	*p = Packet{HopTrace: pp.trace[:0], pooled: pp}
	rest, err := p.Base.Unmarshal(b)
	if err != nil {
		return err
	}
	switch p.Base.NextHeader {
	case NextHeaderGeoSegment:
		if rest, err = p.geo.Unmarshal(rest); err != nil {
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
	if g := p.Geo(); g != nil {
		n += g.EncodedLen()
	}
	return n
}

// NewGeoPacket builds a geo-segment packet following route (cell IDs,
// including the destination cell as the last segment). It inlines, and the
// packet holds its segment list, so a caller that builds, encodes and drops a
// packet keeps it on its stack and allocates nothing for a route of up to
// inlineSegments cells.
func NewGeoPacket(src uint32, route []int, flow, seq uint32, payload []byte) (*Packet, error) {
	return new(Packet).initGeo(src, route, flow, seq, payload)
}

// initGeo fills NewGeoPacket's zero packet p and returns it, or nil and the
// error. Too large to inline, it keeps NewGeoPacket small enough to, and as
// it stores no pointer to p, p does not escape.
//
//tinyleo:hotpath
func (p *Packet) initGeo(src uint32, route []int, flow, seq uint32, payload []byte) (*Packet, error) {
	if len(route) == 0 {
		return nil, errNoSegments
	}
	if len(route) > MaxSegments {
		return nil, fmt.Errorf("dataplane: route of %d cells exceeds max %d", len(route), MaxSegments)
	}
	if len(payload) > maxPayload {
		return nil, errPayloadSize(len(payload))
	}
	segs := p.geo.resize(len(route))
	for i, c := range route {
		if c < 0 || c > 0xFFFF {
			return nil, fmt.Errorf("dataplane: cell %d out of uint16 range", c)
		}
		segs[i] = uint16(c)
	}
	p.geo.SegmentsLeft = uint8(len(route))
	p.Base = BaseHeader{
		Ver:      Version,
		HopLimit: 64,
		SrcNode:  src,
		DstCell:  uint16(route[len(route)-1]),
		FlowID:   flow,
		Seq:      seq,
	}
	p.Payload = payload
	return p, nil
}
