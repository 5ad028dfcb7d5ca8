package southbound

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

func benchRoundTrip(b *testing.B, m *Message) {
	b.Helper()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteMessage(&buf, m); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadMessage(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// Serialization cost of a typical command without trace context: a
// one-op slot delta.
func BenchmarkMessageRoundTrip(b *testing.B) {
	benchRoundTrip(b, &Message{Type: MsgSlotDelta, SatID: 7, Seq: 42,
		Payload: EncodeSlotDelta([]SlotDeltaOp{{Peer: 9, Up: true}})})
}

// The same command carrying the 25-byte trace trailer: the regression
// gate watches the ratio of these two.
func BenchmarkMessageRoundTripTraced(b *testing.B) {
	benchRoundTrip(b, &Message{Type: MsgSlotDelta, SatID: 7, Seq: 42,
		Payload: EncodeSlotDelta([]SlotDeltaOp{{Peer: 9, Up: true}}),
		Trace:   obs.SpanContext{TraceID: obs.TraceID{1, 2}, SpanID: obs.SpanID{3, 4}}})
}

// A DeltaEnforcer.Push → agent apply → ack round trip over loopback TCP:
// what a command costs end to end (TestCommandRoundTripAllocationBudget
// gates its allocations).
func BenchmarkCommandRoundTrip(b *testing.B) {
	lb := newLoopback(b)
	lb.roundTrips(b, 100)
	b.ReportAllocs()
	b.ResetTimer()
	lb.roundTrips(b, b.N)
}
