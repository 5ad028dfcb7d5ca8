// Package southbound implements TinyLEO's southbound control protocol
// (paper §5: a per-satellite agent exchanges control commands and runtime
// ISL/satellite status with the MPC controller; the paper uses gRPC, this
// implementation uses a length-prefixed binary protocol over TCP with the
// same message vocabulary). The controller pushes ISL/ring/route
// configuration; agents report failures and acknowledge commands.
// ISL configuration has one implementation per half: DeltaEnforcer frames
// it (MsgSlotDelta batches, a MsgSlotSnapshot to re-sync an agent) and
// PeerSet folds both into a satellite's applied peer set.
package southbound

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
	// msgRetired (3) was the per-link ISL command, replaced by MsgSlotDelta
	// and MsgSlotSnapshot; the number stays reserved so the rest keep theirs.
	msgRetired
	// MsgSetRing instructs a satellite that its intra-cell ring successor
	// is Peer.
	MsgSetRing
	// MsgInstallRoute installs a geographic segment route (Cells) at a
	// source satellite.
	MsgInstallRoute
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
	// to every other message and pre-delta readers skip it cleanly.
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
	case MsgSetRing:
		return "set-ring"
	case MsgInstallRoute:
		return "install-route"
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
	Peer  uint32 // peer satellite for ISL/ring messages
	Cells []uint16

	// Trace is the causal context of the span that produced this message.
	// It rides the wire in an optional trailer (see WriteMessage): a zero
	// context adds no bytes, and readers predating the trailer ignore it,
	// so tracing is wire-compatible in both directions.
	Trace obs.SpanContext

	// Payload is an opaque byte blob (fleet telemetry reports). Like the
	// trace context it rides an optional marker-tagged trailer, so old
	// readers skip it and a nil payload adds no bytes.
	Payload []byte

	// Emitted is the in-process time the command left the planning layer
	// (MPC emit), carried through the reliability layer so the controller
	// can record emit-to-applied latency at ack time. Never serialized.
	Emitted time.Time
}

const (
	headerLen = 4 + 1 + 4 + 4 + 4 + 1 + 2 // length prefix, type, sat, seq, peer, reserved zero byte, cell count
	// MaxCells bounds route length on the wire.
	MaxCells = 1024
	// traceMarker tags the optional trace-context trailer after the cell
	// list. Old readers treat the trailer as ignorable padding; new readers
	// require the marker so untagged padding is not misread as a context.
	traceMarker = 0x54 // 'T'
	// traceTrailerLen is marker + binary SpanContext.
	traceTrailerLen = 1 + obs.SpanContextWireSize
	// payloadMarker tags the optional opaque-payload trailer, written
	// after the trace trailer (when present). Same compatibility story as
	// traceMarker: old readers treat it as ignorable padding.
	payloadMarker = 0x50 // 'P'
	// MaxTelemetryPayload bounds the opaque payload trailer: the budget
	// a fleet report is encoded to (a registry that needs more is shipped
	// over several reports), small enough that a corrupt length cannot
	// balloon controller memory.
	MaxTelemetryPayload = 1 << 18
	// payloadHeaderLen is marker + uint32 payload length.
	payloadHeaderLen = 1 + 4
	// maxFrame guards against hostile/corrupt length prefixes.
	maxFrame = headerLen + 2*MaxCells + traceTrailerLen + payloadHeaderLen + MaxTelemetryPayload
)

// ErrFrameTooLarge reports a length prefix beyond protocol limits.
var ErrFrameTooLarge = errors.New("southbound: frame too large")

// WireSize returns the message's framed size in bytes (length prefix
// included), used for signaling-byte accounting.
func (m *Message) WireSize() int {
	n := headerLen + 2*len(m.Cells)
	if !m.Trace.IsZero() {
		n += traceTrailerLen
	}
	if len(m.Payload) > 0 {
		n += payloadHeaderLen + len(m.Payload)
	}
	return n
}

// WriteMessage writes one framed message. A non-zero Trace context is
// appended as a marker-tagged trailer after the cell list; pre-trailer
// readers skip it (they only parse the declared cell count).
func WriteMessage(w io.Writer, m *Message) error {
	if len(m.Cells) > MaxCells {
		return fmt.Errorf("southbound: %d cells exceed max %d", len(m.Cells), MaxCells)
	}
	if len(m.Payload) > MaxTelemetryPayload {
		return fmt.Errorf("southbound: %d payload bytes exceed max %d", len(m.Payload), MaxTelemetryPayload)
	}
	n := headerLen - 4 + 2*len(m.Cells)
	if !m.Trace.IsZero() {
		n += traceTrailerLen
	}
	if len(m.Payload) > 0 {
		n += payloadHeaderLen + len(m.Payload)
	}
	buf := make([]byte, 4, 4+n)
	binary.BigEndian.PutUint32(buf, uint32(n))
	buf = buf[:4+headerLen-4+2*len(m.Cells)]
	buf[4] = byte(m.Type)
	binary.BigEndian.PutUint32(buf[5:], m.SatID)
	binary.BigEndian.PutUint32(buf[9:], m.Seq)
	binary.BigEndian.PutUint32(buf[13:], m.Peer)
	binary.BigEndian.PutUint16(buf[18:], uint16(len(m.Cells)))
	for i, c := range m.Cells {
		binary.BigEndian.PutUint16(buf[20+2*i:], c)
	}
	if !m.Trace.IsZero() {
		buf = append(buf, traceMarker)
		buf = m.Trace.AppendWire(buf)
	}
	if len(m.Payload) > 0 {
		buf = append(buf, payloadMarker)
		var plen [4]byte
		binary.BigEndian.PutUint32(plen[:], uint32(len(m.Payload)))
		buf = append(buf, plen[:]...)
		buf = append(buf, m.Payload...)
	}
	_, err := w.Write(buf)
	return err
}

// ReadMessage reads one framed message.
func ReadMessage(r io.Reader) (*Message, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > maxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if n < headerLen-4 {
		return nil, fmt.Errorf("southbound: short frame %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	m := &Message{
		Type:  MsgType(buf[0]),
		SatID: binary.BigEndian.Uint32(buf[1:]),
		Seq:   binary.BigEndian.Uint32(buf[5:]),
		Peer:  binary.BigEndian.Uint32(buf[9:]),
	}
	count := int(binary.BigEndian.Uint16(buf[14:]))
	if count > MaxCells {
		return nil, fmt.Errorf("southbound: %d cells exceed max %d", count, MaxCells)
	}
	if len(buf) < 16+2*count {
		return nil, fmt.Errorf("southbound: cell list truncated (%d cells, %d bytes)", count, len(buf))
	}
	if count > 0 {
		m.Cells = make([]uint16, count)
		for i := range m.Cells {
			m.Cells[i] = binary.BigEndian.Uint16(buf[16+2*i:])
		}
	}
	off := 16 + 2*count
	if len(buf) >= off+traceTrailerLen && buf[off] == traceMarker {
		m.Trace, _ = obs.SpanContextFromWire(buf[off+1:])
		off += traceTrailerLen
	}
	if len(buf) >= off+payloadHeaderLen && buf[off] == payloadMarker {
		plen := int(binary.BigEndian.Uint32(buf[off+1:]))
		off += payloadHeaderLen
		if plen > MaxTelemetryPayload || len(buf) < off+plen {
			return nil, fmt.Errorf("southbound: payload trailer truncated (%d bytes declared, %d present)", plen, len(buf)-off)
		}
		if plen > 0 {
			m.Payload = append([]byte(nil), buf[off:off+plen]...)
		}
	}
	return m, nil
}
