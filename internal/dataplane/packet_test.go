package dataplane

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
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
	// The segment count is 8 bits too: a longer list, with the largest
	// payload, is refused before it outgrows every frame size.
	p.Payload = make([]byte, maxPayload)
	p.Geo.Segments = make([]uint16, 10000)
	if wire, err := p.Encode(); err == nil {
		t.Errorf("Encode of %d segments gave %d wire bytes, want an error", len(p.Geo.Segments), len(wire))
	}
}

// A decoded packet starts its hop trace in its own storage of the first
// capacity, and a released one is as Decode needs it: every field zero, its
// trace included, whatever the trace had grown to. Releasing it again, or
// releasing a packet NewGeoPacket made, pools nothing.
func TestReleaseResetsThePacket(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}); size != 96 {
		t.Errorf("a Packet is %d bytes, want 96 (its size class)", size)
	}
	if size := unsafe.Sizeof(geoBox{}); size != 48 {
		t.Errorf("a geoBox is %d bytes, want 48 (its size class)", size)
	}
	if size := unsafe.Sizeof(pooledPacket{}); size != 208 {
		t.Errorf("a pooledPacket is %d bytes, want 208 (its size class)", size)
	}
	p, _ := NewGeoPacket(1, []int{100, 200}, 2, 3, []byte("xyz"))
	wire, _ := p.Encode()
	for _, hops := range []int{3, hopTraceCap + 1} {
		q, err := Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		own := &(*pooledPacket)(unsafe.Pointer(q)).trace
		if len(q.HopTrace) != 0 || cap(q.HopTrace) != hopTraceCap || unsafe.SliceData(q.HopTrace) != &own[0] {
			t.Errorf("%d hops: decoded trace of length %d, capacity %d, not the packet's own", hops, len(q.HopTrace), cap(q.HopTrace))
		}
		q.SentAt, q.ringFrom, q.ringLeft = 1.5, 4, 1
		for i := 0; i < hops; i++ {
			q.HopTrace = append(q.HopTrace, i)
		}
		q.release()
		if !reflect.DeepEqual(*q, Packet{}) {
			t.Errorf("%d hops: released packet not reset: %+v", hops, *q)
		}
		q.release()
	}
	p.release()
	if p.Geo == nil || p.Base.Seq != 3 || string(p.Payload) != "xyz" {
		t.Errorf("release reset a packet NewGeoPacket made: %+v", *p)
	}
}

// An empty payload decodes to nil, so the packet does not pin its frame: the
// frame goes back to the free list at once, and the next Encode of that size
// fills it again.
func TestDecodeEmptyPayloadIsNil(t *testing.T) {
	p, _ := NewGeoPacket(1, []int{5}, 0, 0, nil)
	wire, _ := p.Encode()
	q, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if q.Payload != nil || q.frame != 0 {
		t.Errorf("empty payload decoded to %v in frame %d, want nil in none", q.Payload, q.frame)
	}
	if again, _ := p.Encode(); unsafe.SliceData(again) != unsafe.SliceData(wire) {
		t.Error("the next Encode did not reuse the frame of a packet with no payload")
	}
}

// within reports whether s starts inside frame's storage.
func within(s, frame []byte) bool {
	at := uintptr(unsafe.Pointer(unsafe.SliceData(s))) - uintptr(unsafe.Pointer(unsafe.SliceData(frame)))
	return s != nil && at < uintptr(cap(frame))
}

// Bytes decoded twice: the first packet takes the frame over and the second
// copies it, so the frame going back to the free list at the first delivery,
// and an Encode filling it again, leave the second packet's payload as it was.
func TestDecodeTwiceThenReuseKeepsTheSecondPayload(t *testing.T) {
	n := chainNet()
	delivered := 0
	n.OnDeliver = func(*Satellite, *Packet) { delivered++ }
	payloadA := bytes.Repeat([]byte("a"), 100)
	a, _ := NewGeoPacket(99, []int{20, 30}, 1, 1, payloadA)
	wire, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	first, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !within(first.Payload, wire) || within(second.Payload, wire) {
		t.Fatalf("first packet's payload in the frame %v, second's %v: want true, false",
			within(first.Payload, wire), within(second.Payload, wire))
	}
	n.Inject(0, first)
	n.Sim.Run(1)
	if delivered != 1 {
		t.Fatalf("delivered %d of 1", delivered)
	}
	b, _ := NewGeoPacket(99, []int{20, 30}, 1, 2, bytes.Repeat([]byte("b"), 100))
	again, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.SliceData(again) != unsafe.SliceData(wire) {
		t.Fatal("Encode did not reuse the delivered packet's frame")
	}
	if !bytes.Equal(second.Payload, payloadA) {
		t.Errorf("the second packet's payload changed to %q", second.Payload)
	}
	second.release()
}

// Only the frame Encode returned last is taken over: an earlier one is
// copied, so writing it afterwards leaves the decoded packet as it was.
func TestDecodeCopiesAnEarlierFrame(t *testing.T) {
	a, _ := NewGeoPacket(1, []int{5}, 0, 1, []byte("payload A"))
	b, _ := NewGeoPacket(1, []int{5}, 0, 2, []byte("payload B"))
	wireA, _ := a.Encode()
	wireB, _ := b.Encode()
	q, err := Decode(wireA)
	if err != nil {
		t.Fatal(err)
	}
	if within(q.Payload, wireA) {
		t.Error("Decode took over a frame Encode no longer held")
	}
	clear(wireA)
	if string(q.Payload) != "payload A" || q.Base.Seq != 1 {
		t.Errorf("overwriting the earlier frame changed the packet: seq %d payload %q", q.Base.Seq, q.Payload)
	}
	r, err := Decode(wireB)
	if err != nil {
		t.Fatal(err)
	}
	if !within(r.Payload, wireB) {
		t.Error("Decode copied the frame Encode returned last")
	}
	q.release()
	r.release()
}

// deliverDecoded sends count packets with payloads through chainNet the
// ledger's way — Encode, Decode, Inject — and checks they are all delivered.
func deliverDecoded(t *testing.T, count int) {
	n := chainNet()
	delivered := 0
	n.OnDeliver = func(*Satellite, *Packet) { delivered++ }
	for i := 0; i < count; i++ {
		p, _ := NewGeoPacket(99, []int{20, 30}, 1, uint32(i), make([]byte, 50+100*(i%4)))
		wire, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		q, err := Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		n.Inject(0, q)
	}
	n.Sim.Run(1)
	if delivered != count {
		t.Fatalf("delivered %d of %d", delivered, count)
	}
}

// idleFrames counts the frames on the free lists, and those of them the
// collector has not reclaimed.
func idleFrames() (listed, live int) {
	frames.mu.Lock()
	defer frames.mu.Unlock()
	for _, idle := range frames.idle {
		for _, no := range idle {
			listed++
			if frames.slots[no-1].ptr.Value() != nil {
				live++
			}
		}
	}
	return listed, live
}

// The free lists hold idle frames weakly: once the packets are delivered, a
// collection reclaims every frame on them.
func TestIdleFramesAreCollectable(t *testing.T) {
	deliverDecoded(t, 40)
	if _, live := idleFrames(); live == 0 {
		t.Fatal("no idle frame after 40 deliveries")
	}
	runtime.GC()
	if listed, live := idleFrames(); live != 0 {
		t.Errorf("%d of %d idle frames still reachable through the free lists after a collection", live, listed)
	}
}

// Four goroutines encode, decode and release at once, two of them in the
// same size class, while one also runs the collector: every packet keeps its
// own payload until its release. Run it with -race.
func TestConcurrentCodecKeepsPayloads(t *testing.T) {
	const workers, rounds = 4, 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := make([]byte, 100+300*(w%2))
			for i := 0; i < rounds; i++ {
				for j := range payload {
					payload[j] = byte(31*w + i + j)
				}
				p, err := NewGeoPacket(uint32(w), []int{1, 2}, uint32(w), uint32(i), payload)
				if err != nil {
					t.Error(err)
					return
				}
				wire, err := p.Encode()
				if err != nil {
					t.Error(err)
					return
				}
				q, err := Decode(wire)
				if err != nil {
					t.Error(err)
					return
				}
				if w == 0 && i%100 == 0 {
					runtime.GC()
				}
				runtime.Gosched()
				if !bytes.Equal(q.Payload, payload) || q.Base.FlowID != uint32(w) || q.Base.Seq != uint32(i) {
					t.Errorf("worker %d round %d: decoded flow %d seq %d, payload changed %v",
						w, i, q.Base.FlowID, q.Base.Seq, !bytes.Equal(q.Payload, payload))
					return
				}
				q.release()
			}
		}()
	}
	wg.Wait()
}

// A frame costs what make would charge for its length: the frame sizes are
// Go's own size classes (from 16 B), then whole pages, up to the largest
// wire form.
func TestFrameSizesAreGoSizeClasses(t *testing.T) {
	prev := 8 // Go's smallest class, which frames skip
	for c, size := range frameSizes {
		for _, n := range []int{prev + 1, int(size)} {
			if got := cap(append([]byte(nil), make([]byte, n)...)); got != int(size) {
				t.Errorf("%d bytes: Go allocates %d, frame size %d", n, got, size)
			}
			if got := frameClass(n); got != c {
				t.Errorf("%d bytes: frame class %d, want %d", n, got, c)
			}
		}
		prev = int(size)
	}
	if largest := BaseHeaderLen + 4 + 2*MaxSegments + maxPayload; frameClass(largest) >= len(frameSizes) {
		t.Errorf("a %d-byte wire form fits no frame size", largest)
	}
}

// A registry whose every number went with frames it never got back (decoded
// packets nobody released) makes unnumbered frames while those live, and
// numbers new frames again once the collector has reclaimed them. A packet
// whose Payload was replaced, so that its frame was reclaimed with the rest,
// does not give back the frame its number names by then.
func TestFullRegistryReclaimsLostFrames(t *testing.T) {
	var r frameRegistry
	lost := make([][]byte, 0, maxFrames)
	var p, q Packet
	r.mu.Lock()
	for len(lost) < maxFrames {
		f, no := r.frameLocked(16)
		if no == 0 {
			r.mu.Unlock()
			t.Fatalf("frame %d of %d unnumbered", len(lost)+1, maxFrames)
		}
		lost = append(lost, f)
	}
	r.holdLocked(&p, maxFrames)
	f, no := r.frameLocked(16)
	r.mu.Unlock()
	if no != 0 || len(f) != 16 {
		t.Fatalf("a full registry gave a %d-byte frame numbered %d, want 16 unnumbered", len(f), no)
	}
	runtime.GC()
	r.mu.Lock()
	_, no = r.frameLocked(16)
	r.mu.Unlock()
	if no != 0 {
		t.Fatalf("numbered frame %d while all %d numbered frames live", no, maxFrames)
	}
	runtime.KeepAlive(lost) // from here on the lost frames are unreachable
	runtime.GC()
	r.mu.Lock()
	f, no = r.frameLocked(16)
	vacant := len(r.vacant)
	if no == maxFrames {
		r.holdLocked(&q, no)
	}
	r.mu.Unlock()
	if no != maxFrames || len(f) != 16 || vacant != maxFrames-1 {
		t.Fatalf("after the collection: frame %d of %d bytes, %d numbers vacant, want frame %d and %d vacant",
			no, len(f), vacant, maxFrames, maxFrames-1)
	}
	r.put(&p)
	if idle := len(r.idle[frameClass(16)]); idle != 0 {
		t.Errorf("releasing a packet whose number was reassigned made %d frames idle", idle)
	}
	r.put(&q)
	if idle := r.idle[frameClass(16)]; !slices.Equal(idle, []frameNo{maxFrames}) {
		t.Errorf("releasing the number's packet left idle frames %v, want [%d]", idle, maxFrames)
	}
	runtime.KeepAlive(f)
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

// allocsPerRun is testing.AllocsPerRun with bytes as well: the mean number
// of objects and of bytes f allocates over runs calls, after one warm-up call.
// Bytes are size classes, as the allocator charges them.
func allocsPerRun(runs int, f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// A packet NewGeoPacket makes and its caller keeps costs 144 bytes while the
// route fits the inline segment list — the 96-byte packet and its 48-byte
// segment box — and stays correct one segment past it, where the list is a
// 24-byte allocation of its own. With the free lists cold — the two
// collections empty the packet pool and reclaim every idle frame, and
// Decode's packets here are never released — Encode makes its frame, which
// its caller keeps, and Decode of bytes Encode no longer holds makes the
// packet, a frame for its payload and that frame's weak pointer (and the
// list past the inline one). Warm, Encode → Decode → release allocates
// nothing: Encode fills the frame release gave back and Decode takes it over.
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
		list := 0.0
		if segs > inlineSegments {
			list = 1
		}
		if objects, bytes := allocsPerRun(100, func() { p, err = NewGeoPacket(1, route, 2, 3, payload) }); objects != 2+list || bytes != 144+24*list || err != nil {
			t.Errorf("%d segments: a kept NewGeoPacket allocates %v objects, %v B, budget %v, %v B (err %v)",
				segs, objects, bytes, 2+list, 144+24*list, err)
		}
		if got := testing.AllocsPerRun(100, func() { wire, err = p.Encode() }); got != 1 || err != nil {
			t.Errorf("%d segments: a cold Encode allocates %v objects, budget 1 (err %v)", segs, got, err)
		}
		if got := testing.AllocsPerRun(100, func() { q, err = Decode(wire) }); got != 3+list || err != nil {
			t.Errorf("%d segments: a cold copying Decode allocates %v objects, budget %v (err %v)", segs, got, 3+list, err)
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
		if raceEnabled {
			continue
		}
		warm := func() {
			if wire, err = p.Encode(); err == nil {
				if q, err = Decode(wire); err == nil {
					q.release()
				}
			}
		}
		if got := testing.AllocsPerRun(100, warm); got != list || err != nil {
			t.Errorf("%d segments: a warm Encode → Decode → release allocates %v objects, budget %v (err %v)", segs, got, list, err)
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
// more than the bytes present) and must not share the input's storage
// (overwriting the input leaves the payload as it was); and
// Decode→Encode→Decode must be a fixed point. A packet released and decoded
// again keeps nothing of its last life: after a and then b, it is what a
// fresh packet decodes b to.
func FuzzDecode(f *testing.F) {
	geo, _ := NewGeoPacket(42, []int{100, 200, 300}, 7, 1, []byte("payload!"))
	wire, _ := geo.Encode()
	long, _ := NewGeoPacket(42, []int{1, 2, 3, 4, 5, 6, 7, 8, 9}, 7, 2, nil)
	wireLong, _ := long.Encode()
	seeds := [][]byte{wire, wire[:len(wire)-1], wire[:BaseHeaderLen+3], wireLong}
	for _, nh := range []uint8{NextHeaderPayload, NextHeaderNone, 0x77} {
		h := BaseHeader{Ver: Version, NextHeader: nh, HopLimit: 16, PayloadLen: 2}
		seeds = append(seeds, append(h.Marshal(nil), "hi"...))
	}
	seeds = append(seeds, garbageVectors(64)...)
	for i, a := range seeds {
		f.Add(a, seeds[(i+1)%len(seeds)])
	}
	f.Fuzz(func(t *testing.T, inA, inB []byte) {
		b := bytes.Clone(inA) // the engine's input is not ours to overwrite
		p, err := Decode(b)
		if err != nil {
			checkRecycledDecode(t, inB)
			return
		}
		if p.WireSize() > len(b) {
			t.Fatalf("decoded %d wire bytes from a %d-byte input", p.WireSize(), len(b))
		}
		if p.Geo != nil && cap(p.Geo.Segments) > (len(b)-BaseHeaderLen-4)/2 {
			t.Fatalf("segment list of capacity %d from a %d-byte input", cap(p.Geo.Segments), len(b))
		}
		payload := bytes.Clone(p.Payload)
		for i := range b {
			b[i] = ^b[i]
		}
		if !bytes.Equal(p.Payload, payload) {
			t.Fatalf("overwriting the input changed the decoded payload from %q to %q", payload, p.Payload)
		}
		again, err := p.Encode()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		q, err := Decode(again)
		if err != nil {
			t.Fatalf("decode of re-encoded packet: %v", err)
		}
		// A recycled packet keeps its hop trace's storage, and its payload
		// lies in a frame of its own.
		p.HopTrace, q.HopTrace = nil, nil
		pf, qf := p.frame, q.frame
		p.frame, q.frame = 0, 0
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the packet:\n%+v\n%+v", p, q)
		}
		p.frame, q.frame = pf, qf
		// Fill a hop trace past its first capacity, as a long route does.
		for i := 0; i <= hopTraceCap; i++ {
			p.HopTrace = append(p.HopTrace, i)
		}
		p.ringFrom, p.ringLeft = 7, 1
		p.release()
		q.release()
		checkRecycledDecode(t, inB)
	})
}

// checkRecycledDecode decodes in with Decode, which reuses a released packet
// when the pool has one, and into a packet never used before, and fails t
// unless the two agree in every field: segments, SegmentsLeft, ring state,
// whether the payload lies in a frame, and an empty hop trace.
func checkRecycledDecode(t *testing.T, in []byte) {
	t.Helper()
	fresh := new(pooledPacket)
	freshErr := fresh.decode(bytes.Clone(in))
	got, err := Decode(bytes.Clone(in))
	if (err != nil) != (freshErr != nil) {
		t.Fatalf("a recycled packet decodes with error %v, a fresh one with %v", err, freshErr)
	}
	if err != nil {
		return
	}
	frames.own(&fresh.Packet, in)
	if len(got.HopTrace) != 0 {
		t.Fatalf("a recycled packet starts with hop trace %v", got.HopTrace)
	}
	want, trace, frame := fresh.Packet, got.HopTrace, got.frame
	got.HopTrace, want.HopTrace = nil, nil
	if (got.frame != 0) != (want.frame != 0) {
		t.Fatalf("a recycled packet's payload in frame %d, a fresh one's in %d", got.frame, want.frame)
	}
	got.frame, want.frame = 0, 0
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("a recycled packet decodes to\n%+v, a fresh one to\n%+v", *got, want)
	}
	got.HopTrace, got.frame = trace, frame
	got.release()
	fresh.release()
}
