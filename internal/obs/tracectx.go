package obs

import (
	"encoding/binary"
	"encoding/hex"
)

// TraceID identifies one causal tree of spans across processes (a command's
// whole life: MPC emit → controller send → retransmits → agent apply → ack).
// 128 bits, W3C trace-context sized.
type TraceID [16]byte

// IsZero reports whether the trace ID is unset.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 32 lowercase hex characters.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID identifies one span within a trace. 64 bits, W3C sized.
type SpanID [8]byte

// IsZero reports whether the span ID is unset.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 16 lowercase hex characters.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// SpanContext is the portable identity of a span: enough to continue its
// trace in another goroutine, another process, or across the southbound
// wire. The zero SpanContext means "no trace": propagating it is free and
// starting a span from it opens a new root.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// IsZero reports whether the context carries no trace.
func (sc SpanContext) IsZero() bool { return sc.TraceID.IsZero() && sc.SpanID.IsZero() }

// SpanContextWireSize is the binary encoding length of a SpanContext
// (trace ID then span ID, no version byte — framing supplies one).
const SpanContextWireSize = 24

// AppendWire appends the 24-byte binary encoding to b.
func (sc SpanContext) AppendWire(b []byte) []byte {
	b = append(b, sc.TraceID[:]...)
	return append(b, sc.SpanID[:]...)
}

// SpanContextFromWire decodes the 24-byte binary encoding. ok is false
// when b is short or the ids are all zero.
func SpanContextFromWire(b []byte) (sc SpanContext, ok bool) {
	if len(b) < SpanContextWireSize {
		return SpanContext{}, false
	}
	copy(sc.TraceID[:], b[:16])
	copy(sc.SpanID[:], b[16:24])
	return sc, !sc.IsZero()
}

// mix64 is the splitmix64 finalizer: a cheap, high-quality bijection used
// to derive span/trace IDs from a seed and a sequence counter without any
// global RNG (the determinism contract forbids math/rand globals, and
// campaigns need reproducible IDs from a campaign seed).
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// newSpanID derives the next span ID from the tracer's seed and sequence.
func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		n := t.idSeq.Add(1)
		binary.BigEndian.PutUint64(id[:], mix64(t.idSeed.Load()^(n*0x9E3779B97F4A7C15)))
	}
	return id
}

// newTraceID derives a fresh 128-bit trace ID.
func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		n := t.idSeq.Add(1)
		seed := t.idSeed.Load()
		binary.BigEndian.PutUint64(id[:8], mix64(seed^(n*0x9E3779B97F4A7C15)))
		binary.BigEndian.PutUint64(id[8:], mix64(seed^(n*0x9E3779B97F4A7C15)^0xD1B54A32D192ED03))
	}
	return id
}
