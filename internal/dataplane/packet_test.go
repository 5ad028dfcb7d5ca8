package dataplane

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

// raceEnabled is set by race_test.go: the race detector drops a share of
// sync.Pool puts on purpose, so recycling budgets do not hold under it.
var raceEnabled bool

func TestBaseHeaderRoundTrip(t *testing.T) {
	h := BaseHeader{
		Ver: Version, NextHeader: NextHeaderPayload, HopLimit: 64, Flags: FlagControl,
		SrcNode: 0xDEADBEEF, DstCell: 4049, FlowID: 7, Seq: 123456, PayloadLen: 99,
	}
	b := h.Marshal(nil)
	if len(b) != BaseHeaderLen {
		t.Fatalf("encoded %d bytes", len(b))
	}
	var got BaseHeader
	rest, err := got.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("rest = %d bytes", len(rest))
	}
	if got != h {
		t.Errorf("roundtrip: %+v != %+v", got, h)
	}
}

func TestBaseHeaderErrors(t *testing.T) {
	var h BaseHeader
	if _, err := h.Unmarshal(make([]byte, BaseHeaderLen-1)); !errors.Is(err, ErrTruncated) {
		t.Errorf("short buffer: %v", err)
	}
	bad := (&BaseHeader{Ver: 9}).Marshal(nil)
	if _, err := h.Unmarshal(bad); !errors.Is(err, ErrVersion) {
		t.Errorf("bad version: %v", err)
	}
}

func TestGeoSegmentRoundTrip(t *testing.T) {
	g := GeoSegmentHeader{NextHeader: NextHeaderPayload, SegmentsLeft: 3, Segments: []uint16{10, 20, 30}}
	b, err := g.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != g.EncodedLen() {
		t.Errorf("len %d vs EncodedLen %d", len(b), g.EncodedLen())
	}
	var got GeoSegmentHeader
	rest, err := got.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || !reflect.DeepEqual(got, g) {
		t.Errorf("roundtrip: %+v", got)
	}
}

func TestGeoSegmentValidation(t *testing.T) {
	over := GeoSegmentHeader{SegmentsLeft: 5, Segments: []uint16{1, 2}}
	if _, err := over.Marshal(nil); err == nil {
		t.Error("segments-left overflow accepted at marshal")
	}
	// Craft a wire image with segments-left > count.
	raw := []byte{0, 3, 1, 0, 0, 1}
	var g GeoSegmentHeader
	if _, err := g.Unmarshal(raw); err == nil {
		t.Error("segments-left overflow accepted at unmarshal")
	}
	if _, err := g.Unmarshal([]byte{0, 0}); !errors.Is(err, ErrTruncated) {
		t.Error("short prefix accepted")
	}
	if _, err := g.Unmarshal([]byte{0, 1, 4, 0, 0, 1}); !errors.Is(err, ErrTruncated) {
		t.Error("truncated segment list accepted")
	}
}

func TestSegmentCursor(t *testing.T) {
	g := GeoSegmentHeader{SegmentsLeft: 3, Segments: []uint16{10, 20, 30}}
	if g.CurrentSegment() != 10 {
		t.Errorf("current = %d", g.CurrentSegment())
	}
	g.Advance()
	if g.CurrentSegment() != 20 {
		t.Errorf("after advance = %d", g.CurrentSegment())
	}
	g.Advance()
	g.Advance()
	if g.CurrentSegment() != -1 {
		t.Errorf("exhausted = %d", g.CurrentSegment())
	}
	g.Advance() // must not underflow
	if g.SegmentsLeft != 0 {
		t.Error("underflow")
	}
}

func TestPacketEncodeDecode(t *testing.T) {
	p, err := NewGeoPacket(42, []int{100, 200, 300}, 7, 1, []byte("payload!"))
	if err != nil {
		t.Fatal(err)
	}
	wire, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != p.WireSize() {
		t.Errorf("wire %d vs WireSize %d", len(wire), p.WireSize())
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Base.SrcNode != 42 || got.Base.DstCell != 300 {
		t.Errorf("base = %+v", got.Base)
	}
	if !reflect.DeepEqual(got.Geo.Segments, []uint16{100, 200, 300}) {
		t.Errorf("segments = %v", got.Geo.Segments)
	}
	if !bytes.Equal(got.Payload, []byte("payload!")) {
		t.Errorf("payload = %q", got.Payload)
	}
}

func TestPacketDecodeErrors(t *testing.T) {
	p, _ := NewGeoPacket(1, []int{5}, 0, 0, []byte("xyz"))
	wire, _ := p.Encode()
	if _, err := Decode(wire[:len(wire)-1]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated payload: %v", err)
	}
	// Unknown next header.
	h := BaseHeader{Ver: Version, NextHeader: 0x77}
	if _, err := Decode(h.Marshal(nil)); err == nil {
		t.Error("unknown next header accepted")
	}
}

func TestNewGeoPacketValidation(t *testing.T) {
	if _, err := NewGeoPacket(1, nil, 0, 0, nil); err == nil {
		t.Error("empty route accepted")
	}
	if _, err := NewGeoPacket(1, []int{70000}, 0, 0, nil); err == nil {
		t.Error("oversized cell id accepted")
	}
	long := make([]int, 300)
	if _, err := NewGeoPacket(1, long, 0, 0, nil); err == nil {
		t.Error("overlong route accepted")
	}
}

// PayloadLen is 16 bits: a longer payload is refused, not truncated on the
// wire.
func TestPayloadOverMaxIsRejected(t *testing.T) {
	if _, err := NewGeoPacket(1, []int{5}, 0, 0, make([]byte, maxPayload+1)); err == nil {
		t.Error("NewGeoPacket accepted a payload PayloadLen cannot describe")
	}
	p, err := NewGeoPacket(1, []int{5}, 0, 0, make([]byte, maxPayload))
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
	if len(q.Payload) != maxPayload {
		t.Errorf("a %d-byte payload decoded to %d bytes", maxPayload, len(q.Payload))
	}
	p.Payload = make([]byte, 70000)
	if wire, err := p.Encode(); err == nil {
		t.Errorf("Encode of a 70000-byte payload gave %d wire bytes, want an error", len(wire))
	}
}

// A released packet is as Decode needs it: every field zero but the hop
// trace's storage, which is kept only at its first capacity. Releasing it
// again, or releasing a packet NewGeoPacket made, pools nothing.
func TestReleaseResetsThePacket(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}); size != 144 {
		t.Errorf("a Packet is %d bytes, want 144 (its size class)", size)
	}
	p, _ := NewGeoPacket(1, []int{100, 200}, 2, 3, []byte("xyz"))
	wire, _ := p.Encode()
	for _, hops := range []int{3, hopTraceCap + 1} {
		q, err := Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		q.SentAt, q.ringFrom, q.ringLeft = 1.5, 4, 1
		q.HopTrace = make([]int, 0, hopTraceCap)
		for i := 0; i < hops; i++ {
			q.HopTrace = append(q.HopTrace, i)
		}
		q.release()
		trace := q.HopTrace
		if len(trace) != 0 || (hops <= hopTraceCap) != (cap(trace) == hopTraceCap) {
			t.Errorf("%d hops: released trace has length %d, capacity %d", hops, len(trace), cap(trace))
		}
		q.HopTrace = nil
		if !reflect.DeepEqual(*q, Packet{}) {
			t.Errorf("%d hops: released packet not reset: %+v", hops, *q)
		}
		q.HopTrace = trace
		q.release()
	}
	p.release()
	if p.Geo == nil || p.Base.Seq != 3 || string(p.Payload) != "xyz" {
		t.Errorf("release reset a packet NewGeoPacket made: %+v", *p)
	}
}

// An empty payload decodes to nil, so the packet does not pin its frame.
func TestDecodeEmptyPayloadIsNil(t *testing.T) {
	p, _ := NewGeoPacket(1, []int{5}, 0, 0, nil)
	wire, _ := p.Encode()
	q, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if q.Payload != nil {
		t.Errorf("empty payload decoded to %v, want nil", q.Payload)
	}
}

func TestPacketRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nSeg := 1 + r.Intn(10)
		route := make([]int, nSeg)
		for i := range route {
			route[i] = r.Intn(4050)
		}
		payload := make([]byte, r.Intn(64))
		rng.Read(payload)
		p, err := NewGeoPacket(uint32(r.Uint32()), route, uint32(r.Uint32()), uint32(r.Uint32()), payload)
		if err != nil {
			return false
		}
		wire, err := p.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(wire)
		if err != nil {
			return false
		}
		wire2, err := got.Encode()
		if err != nil {
			return false
		}
		return bytes.Equal(wire, wire2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// NewGeoPacket, Encode and Decode make one object each while the route fits
// the packet's inline segment list, and stay correct one segment past it,
// where the list is an allocation of its own. Decode draws on a pool that
// the two collections empty, and its packets here are never released.
func TestPacketAllocationBudget(t *testing.T) {
	runtime.GC()
	runtime.GC()
	for _, segs := range []int{1, inlineSegments, inlineSegments + 1} {
		route := make([]int, segs)
		want := make([]uint16, segs)
		for i := range route {
			route[i] = 100 + i
			want[i] = uint16(100 + i)
		}
		payload := []byte("sixteen bytes...")
		var p, q *Packet
		var wire []byte
		var err error
		budget := 1.0
		if segs > inlineSegments {
			budget = 2
		}
		if got := testing.AllocsPerRun(100, func() { p, err = NewGeoPacket(1, route, 2, 3, payload) }); got != budget || err != nil {
			t.Errorf("%d segments: NewGeoPacket allocates %v objects, budget %v (err %v)", segs, got, budget, err)
		}
		if got := testing.AllocsPerRun(100, func() { wire, err = p.Encode() }); got != 1 || err != nil {
			t.Errorf("%d segments: Encode allocates %v objects, budget 1 (err %v)", segs, got, err)
		}
		if got := testing.AllocsPerRun(100, func() { q, err = Decode(wire) }); got != budget || err != nil {
			t.Errorf("%d segments: Decode allocates %v objects, budget %v (err %v)", segs, got, budget, err)
		}
		if len(wire) != p.WireSize() || cap(wire) != len(wire) {
			t.Errorf("%d segments: wire form of %d bytes (capacity %d), WireSize %d", segs, len(wire), cap(wire), p.WireSize())
		}
		if !slices.Equal(p.Geo.Segments, want) || !slices.Equal(q.Geo.Segments, want) ||
			int(q.Geo.SegmentsLeft) != segs || !bytes.Equal(q.Payload, payload) {
			t.Errorf("%d segments: built %v, decoded %v left %d payload %q", segs, p.Geo.Segments, q.Geo.Segments, q.Geo.SegmentsLeft, q.Payload)
		}
		// Two packets decoded from the same bytes own their segment lists.
		q2, err := Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		q2.Geo.Segments[0] = 9
		q2.Geo.Advance()
		if q.Geo.Segments[0] != 100 || int(q.Geo.SegmentsLeft) != segs || p.Geo.Segments[0] != 100 {
			t.Errorf("%d segments: writing one decoded packet's route changed another's", segs)
		}
		if again, err := q.Encode(); err != nil || !bytes.Equal(again, wire) {
			t.Errorf("%d segments: re-encoded form differs (err %v)", segs, err)
		}
	}
}

// garbageVectors returns n seeded random buffers of up to 64 bytes, each
// given a chance past the version check.
func garbageVectors(n int) [][]byte {
	rng := rand.New(rand.NewSource(3))
	out := make([][]byte, n)
	for i := range out {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		if len(b) > 0 {
			b[0] = Version
		}
		out[i] = b
	}
	return out
}

func TestDecodeGarbageNeverPanics(t *testing.T) {
	for _, b := range garbageVectors(2000) {
		_, _ = Decode(b) // must not panic
	}
}

// FuzzDecode feeds the packet codec arbitrary bytes, as a socket would. It
// must not panic; what it decodes must fit inside the input (the segment
// list and payload are sized by length fields, which must never promise
// more than the bytes present); and Decode→Encode→Decode must be a fixed
// point.
func FuzzDecode(f *testing.F) {
	geo, _ := NewGeoPacket(42, []int{100, 200, 300}, 7, 1, []byte("payload!"))
	wire, _ := geo.Encode()
	f.Add(wire)
	f.Add(wire[:len(wire)-1])
	f.Add(wire[:BaseHeaderLen+3])
	for _, nh := range []uint8{NextHeaderPayload, NextHeaderNone, 0x77} {
		h := BaseHeader{Ver: Version, NextHeader: nh, HopLimit: 16, PayloadLen: 2}
		f.Add(append(h.Marshal(nil), "hi"...))
	}
	for _, b := range garbageVectors(64) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Decode(b)
		if err != nil {
			return
		}
		if p.WireSize() > len(b) {
			t.Fatalf("decoded %d wire bytes from a %d-byte input", p.WireSize(), len(b))
		}
		if p.Geo != nil && cap(p.Geo.Segments) > (len(b)-BaseHeaderLen-4)/2 {
			t.Fatalf("segment list of capacity %d from a %d-byte input", cap(p.Geo.Segments), len(b))
		}
		again, err := p.Encode()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		q, err := Decode(again)
		if err != nil {
			t.Fatalf("decode of re-encoded packet: %v", err)
		}
		// A recycled packet keeps its hop trace's storage.
		p.HopTrace, q.HopTrace = nil, nil
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the packet:\n%+v\n%+v", p, q)
		}
		p.release()
		q.release()
	})
}
