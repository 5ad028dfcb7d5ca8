package southbound

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// wire is m's framed form.
func wire(tb testing.TB, m *Message) []byte {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadMessage feeds arbitrary bytes to the frame reader: it may
// reject them, but must not panic, must not allocate past maxFrame on the
// say-so of a length prefix, and whatever it accepts must survive
// encode → decode unchanged (frame, trace trailer and payload trailer).
// The second input is read back to back after the first through one
// frameReader, which decodes it into the first frame's pooled storage: it
// must decode exactly as ReadMessage decodes it alone, so nothing of the
// first frame (trace, payload) may bleed into it.
func FuzzReadMessage(f *testing.F) {
	trace := obs.SpanContext{TraceID: obs.TraceID{1}, SpanID: obs.SpanID{2}}
	seeds := []*Message{
		{Type: MsgHello, SatID: 7, Seq: 1},
		{Type: MsgAck, SatID: 7, Seq: 4},
		{Type: MsgSlotDelta, SatID: 7, Seq: 5, Payload: EncodeSlotDelta(nil)},
		{Type: MsgFailureReport, SatID: 7, Peer: 0xFFFFFFFF},
		{Type: MsgSlotSnapshot, SatID: 1, Seq: 2, Trace: trace},
		{Type: MsgTelemetry, SatID: 4, Payload: []byte("fleet report")},
		{Type: MsgSlotDelta, SatID: 7, Seq: 3, Trace: trace,
			Payload: EncodeSlotDelta([]SlotDeltaOp{{Peer: 9}, {Peer: 0xFFFFFFFF}})},
		{Type: MsgSlotSnapshot, SatID: 7, Seq: 6, Payload: EncodeSlotSnapshot([]uint32{3, 1, 4})},
	}
	for i, m := range seeds {
		// Each seed follows its predecessor, so the traced and payload
		// frames are followed by ones without the trailer.
		f.Add(wire(f, seeds[(i+len(seeds)-1)%len(seeds)]), wire(f, m))
	}
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, wire(f, seeds[0]))
	// A header cut short by one byte after a full frame.
	f.Add(wire(f, seeds[6]), wire(f, &Message{Type: MsgHello, SatID: 1})[:headerLen-1])
	f.Fuzz(func(t *testing.T, first, second []byte) {
		want, wantErr := ReadMessage(bytes.NewReader(second))
		if wantErr == nil {
			if n := want.WireSize(); n > 4+maxFrame || n > len(second) {
				t.Fatalf("decoded a %d-byte message from %d input bytes (maxFrame %d)", n, len(second), maxFrame)
			}
			again, err := ReadMessage(bytes.NewReader(wire(t, want)))
			if err != nil || !reflect.DeepEqual(again, want) {
				t.Fatalf("decode → encode → decode changed the message: %+v → %+v (%v)", want, again, err)
			}
		}

		stream := bytes.NewReader(append(append([]byte(nil), first...), second...))
		fr := frameReader{r: stream}
		if _, err := fr.next(); err != nil || stream.Len() != len(second) {
			return // the first input is not exactly one frame
		}
		got, err := fr.next()
		defer fr.release()
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("after a frame, the reader says %v; alone, ReadMessage says %v", err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("after a frame, the reader decodes %+v; alone, ReadMessage decodes %+v", got, want)
		}
	})
}

// FuzzSlotPayloads feeds arbitrary bytes to the two ISL payload decoders
// and to PeerSet.Apply, which must agree: what decodes re-encodes to the
// same bytes and is applied, what does not is rejected and leaves the set
// untouched.
func FuzzSlotPayloads(f *testing.F) {
	f.Add(EncodeSlotDelta([]SlotDeltaOp{{Peer: 9}, {Peer: 0xFFFFFFFF}, {Peer: 0}}))
	f.Add(EncodeSlotDelta(nil))
	f.Add(EncodeSlotSnapshot([]uint32{3, 1, 4, 1<<31 + 5}))
	for _, corrupt := range [][]byte{nil, {1, 2}, {0, 0, 0, 5, 1}, {0xFF, 0xFF, 0xFF, 0xFF}, {0, 0, 0, 1, 2, 0, 0, 0, 9}} {
		f.Add(corrupt)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		before := []uint32{1, 2}
		ops, deltaErr := DecodeSlotDelta(p)
		if deltaErr == nil && !bytes.Equal(EncodeSlotDelta(ops), p) {
			t.Fatalf("slot-delta %x decoded to %v, which encodes to %x", p, ops, EncodeSlotDelta(ops))
		}
		peers, snapErr := DecodeSlotSnapshot(p)
		if snapErr == nil && !bytes.Equal(EncodeSlotSnapshot(peers), p) {
			t.Fatalf("slot-snapshot %x decoded to %v, which encodes to %x", p, peers, EncodeSlotSnapshot(peers))
		}
		for typ, decodeErr := range map[MsgType]error{MsgSlotDelta: deltaErr, MsgSlotSnapshot: snapErr} {
			var set PeerSet
			if err := set.Apply(&Message{Type: MsgSlotSnapshot, Payload: EncodeSlotSnapshot(before)}); err != nil {
				t.Fatal(err)
			}
			err := set.Apply(&Message{Type: typ, Payload: p})
			if (err != nil) != (decodeErr != nil) {
				t.Fatalf("%s %x: Apply error %v, decoder error %v", typ, p, err, decodeErr)
			}
			if err != nil && !reflect.DeepEqual(set.Peers(), before) {
				t.Fatalf("%s %x: rejected payload changed the set to %v", typ, p, set.Peers())
			}
		}
	})
}
