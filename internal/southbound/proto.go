// Package southbound implements TinyLEO's southbound control protocol
// (paper §5: a per-satellite agent exchanges control commands and runtime
// ISL/satellite status with the MPC controller; the paper uses gRPC, this
// implementation uses a length-prefixed binary protocol over TCP with the
// same message vocabulary). The controller pushes ISL configuration and
// nothing else: a packet carries its own geographic segments (§4.3), so a
// satellite holds no routes. Agents report failures and acknowledge
// commands. ISL configuration has one implementation per half:
// DeltaEnforcer frames it (MsgSlotDelta batches, a MsgSlotSnapshot to
// re-sync an agent) and PeerSet folds both into a satellite's applied peer
// set.
package southbound

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
)

// MsgType enumerates protocol messages.
type MsgType uint8

const (
	// MsgHello registers an agent (SatID) with the controller.
	MsgHello MsgType = iota + 1
	// MsgHelloAck confirms registration.
	MsgHelloAck
	// MsgFailureReport notifies the controller that the link to Peer (or
	// the satellite itself, Peer == 0xFFFFFFFF) failed.
	MsgFailureReport
	// MsgAck acknowledges a command by Seq.
	MsgAck
	// MsgTelemetry carries a fleet-telemetry report — the changed rows of
	// the agent's /metrics.json document, opaque at this layer (see
	// internal/obs/fleet) — from agent to controller in the Payload trailer.
	MsgTelemetry
	// MsgSlotDelta carries one satellite's batch of ISL add/remove ops for
	// a control slot (the delta enforcement path). The ops ride the
	// Payload trailer (EncodeSlotDelta), so the frame layout is identical
	// to every other message.
	MsgSlotDelta
	// MsgSlotSnapshot carries one satellite's full desired ISL peer set —
	// the re-sync fallback when an agent reconnected or its ack state was
	// declared unreachable and per-op deltas can no longer be trusted to
	// compose. Peers ride the Payload trailer (EncodeSlotSnapshot).
	MsgSlotSnapshot
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgHelloAck:
		return "hello-ack"
	case MsgFailureReport:
		return "failure-report"
	case MsgAck:
		return "ack"
	case MsgTelemetry:
		return "telemetry"
	case MsgSlotDelta:
		return "slot-delta"
	case MsgSlotSnapshot:
		return "slot-snapshot"
	}
	return fmt.Sprintf("msgtype(%d)", uint8(t))
}

// Message is the protocol unit.
type Message struct {
	Type  MsgType
	SatID uint32 // subject satellite
	Seq   uint32 // command sequence / ack correlation
	Peer  uint32 // a MsgFailureReport's failed peer

	// Trace is the causal context of the span that produced this message.
	// It rides the wire in an optional trailer (see WriteMessage): a zero
	// context adds no bytes.
	Trace obs.SpanContext

	// Payload is an opaque byte blob (slot-delta ops, snapshot peers,
	// fleet telemetry reports). Like the trace context it rides an
	// optional marker-tagged trailer, and a nil payload adds no bytes.
	Payload []byte

	// Emitted is the in-process time the command left the planning layer
	// (MPC emit), carried through the reliability layer so the controller
	// can record emit-to-applied latency at ack time. Never serialized.
	Emitted time.Time
}

const (
	headerLen = 4 + 1 + 4 + 4 + 4 // length prefix, type, sat, seq, peer
	// traceMarker tags the optional trace-context trailer after the
	// header. Readers require the marker so untagged bytes are not misread
	// as a context.
	traceMarker = 0x54 // 'T'
	// traceTrailerLen is marker + binary SpanContext.
	traceTrailerLen = 1 + obs.SpanContextWireSize
	// payloadMarker tags the optional opaque-payload trailer, written
	// after the trace trailer (when present); like traceMarker, bytes
	// without it are ignored.
	payloadMarker = 0x50 // 'P'
	// MaxTelemetryPayload bounds the opaque payload trailer: the budget
	// a fleet report is encoded to (a registry that needs more is shipped
	// over several reports), small enough that a corrupt length cannot
	// balloon controller memory.
	MaxTelemetryPayload = 1 << 18
	// payloadHeaderLen is marker + uint32 payload length.
	payloadHeaderLen = 1 + 4
	// maxFrame guards against hostile/corrupt length prefixes.
	maxFrame = headerLen + traceTrailerLen + payloadHeaderLen + MaxTelemetryPayload
)

// ErrFrameTooLarge reports a length prefix beyond protocol limits.
var ErrFrameTooLarge = errors.New("southbound: frame too large")

// WireSize returns the message's framed size in bytes (length prefix
// included), used for signaling-byte accounting.
func (m *Message) WireSize() int {
	n := headerLen
	if !m.Trace.IsZero() {
		n += traceTrailerLen
	}
	if len(m.Payload) > 0 {
		n += payloadHeaderLen + len(m.Payload)
	}
	return n
}

// WriteMessage writes one framed message. A non-zero Trace context is
// appended as a marker-tagged trailer after the header. The frame is
// encoded into pooled storage, held only for the length of the write.
func WriteMessage(w io.Writer, m *Message) error {
	f := framePool.Get().(*frame)
	defer f.free()
	var err error
	if f.buf, err = appendMessage(f.buf[:0], m); err != nil {
		return err
	}
	_, err = w.Write(f.buf)
	return err
}

// appendMessage appends m's frame, length prefix included, to dst: the
// one encoder of the protocol.
func appendMessage(dst []byte, m *Message) ([]byte, error) {
	if len(m.Payload) > MaxTelemetryPayload {
		return dst, fmt.Errorf("southbound: %d payload bytes exceed max %d", len(m.Payload), MaxTelemetryPayload)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.WireSize()-4))
	dst = append(dst, byte(m.Type))
	dst = binary.BigEndian.AppendUint32(dst, m.SatID)
	dst = binary.BigEndian.AppendUint32(dst, m.Seq)
	dst = binary.BigEndian.AppendUint32(dst, m.Peer)
	if !m.Trace.IsZero() {
		dst = append(dst, traceMarker)
		dst = m.Trace.AppendWire(dst)
	}
	if len(m.Payload) > 0 {
		dst = append(dst, payloadMarker)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Payload)))
		dst = append(dst, m.Payload...)
	}
	return dst, nil
}

// ReadMessage reads one framed message. The message owns its storage.
func ReadMessage(r io.Reader) (*Message, error) {
	fr := frameReader{r: r}
	m, err := fr.next()
	if err != nil {
		return nil, err
	}
	defer fr.release()
	return m.Clone(), nil
}

// Clone returns a copy of m that owns its storage: one Message plus an
// exact-size Payload (nil stays nil). A hook that borrows its message
// (OnCommand, OnSent, OnAck) clones what it keeps past the call.
func (m *Message) Clone() *Message {
	c := *m
	if m.Payload != nil {
		c.Payload = make([]byte, len(m.Payload))
		copy(c.Payload, m.Payload)
	}
	return &c
}

// maxPooledFrame caps the storage a frame returns to the pool with: a rare
// large telemetry report is left to the garbage collector rather than
// pinned for every later command and ack.
const maxPooledFrame = 64 << 10

// frame is pooled codec storage: a write borrows one for its encoded bytes,
// a frameReader for one received frame and the message that aliases it.
type frame struct {
	buf []byte
	msg Message
}

var framePool = sync.Pool{New: func() any { return new(frame) }}

// free returns f to the pool.
func (f *frame) free() {
	if cap(f.buf) > maxPooledFrame {
		f.buf = nil
	}
	f.msg = Message{} // its Payload would still pin a dropped buffer
	framePool.Put(f)
}

// frameReader is a connection's frame decoder. Between calls it holds only
// the length prefix: next borrows a pooled frame once a prefix has arrived
// and returns it to the pool on the following call, so an idle connection
// pins no frame.
type frameReader struct {
	r      io.Reader
	prefix [4]byte
	cur    *frame // the frame the last next returned
}

// next reads and decodes one frame. The message and its Payload are
// borrowed: valid until the next call to next or release.
func (fr *frameReader) next() (*Message, error) {
	fr.release()
	if _, err := io.ReadFull(fr.r, fr.prefix[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(fr.prefix[:])
	if n > maxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if n < headerLen-4 {
		return nil, fmt.Errorf("southbound: short frame %d", n)
	}
	f := framePool.Get().(*frame)
	f.buf = slices.Grow(f.buf[:0], int(n))[:n]
	_, err := io.ReadFull(fr.r, f.buf)
	if err == nil {
		err = f.decode()
	}
	if err != nil {
		f.free()
		return nil, err
	}
	fr.cur = f
	return &f.msg, nil
}

// release returns the frame the last next call borrowed to the pool.
func (fr *frameReader) release() {
	if fr.cur != nil {
		fr.cur.free()
		fr.cur = nil
	}
}

// decode parses the frame body in f.buf into f.msg, every field of it:
// Payload aliases f.buf, and nothing of an earlier frame survives.
func (f *frame) decode() error {
	buf := f.buf
	f.msg = Message{
		Type:  MsgType(buf[0]),
		SatID: binary.BigEndian.Uint32(buf[1:]),
		Seq:   binary.BigEndian.Uint32(buf[5:]),
		Peer:  binary.BigEndian.Uint32(buf[9:]),
	}
	off := headerLen - 4
	if len(buf) >= off+traceTrailerLen && buf[off] == traceMarker {
		f.msg.Trace, _ = obs.SpanContextFromWire(buf[off+1:])
		off += traceTrailerLen
	}
	if len(buf) >= off+payloadHeaderLen && buf[off] == payloadMarker {
		plen := int(binary.BigEndian.Uint32(buf[off+1:]))
		off += payloadHeaderLen
		if plen > MaxTelemetryPayload || len(buf) < off+plen {
			return fmt.Errorf("southbound: payload trailer truncated (%d bytes declared, %d present)", plen, len(buf)-off)
		}
		if plen > 0 {
			f.msg.Payload = buf[off : off+plen : off+plen]
		}
	}
	return nil
}
