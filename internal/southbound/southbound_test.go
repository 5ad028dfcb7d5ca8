package southbound

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestMessageRoundTrip(t *testing.T) {
	msgs := []*Message{
		{Type: MsgHello, SatID: 7, Seq: 1},
		{Type: MsgSlotDelta, SatID: 7, Seq: 2, Payload: EncodeSlotDelta([]SlotDeltaOp{{Peer: 9}})},
		{Type: MsgSlotSnapshot, SatID: 7, Seq: 3, Payload: EncodeSlotSnapshot([]uint32{9})},
		{Type: MsgSlotDelta, SatID: 7, Seq: 6, Payload: EncodeSlotDelta(nil)},
		{Type: MsgFailureReport, SatID: 7, Peer: 11},
		{Type: MsgFailureReport, SatID: 7, Peer: 0xFFFFFFFF},
		{Type: MsgTelemetry, SatID: 7, Payload: []byte("report")},
		{Type: MsgAck, SatID: 7, Seq: 5},
	}
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("roundtrip: %+v != %+v", got, want)
		}
	}
}

// TestSlotDeltaFrameGolden pins the frame of one slot delta carrying both
// trailers, byte for byte: a 17-byte header (length prefix, type, sat, seq,
// peer), the trace trailer, then the payload trailer.
func TestSlotDeltaFrameGolden(t *testing.T) {
	m := &Message{Type: MsgSlotDelta, SatID: 0x0102, Seq: 0x0304,
		Trace:   obs.SpanContext{TraceID: obs.TraceID{0xA1, 0xA2}, SpanID: obs.SpanID{0xB1}},
		Payload: EncodeSlotDelta([]SlotDeltaOp{{Peer: 7, Up: true}, {Peer: 9}})}
	want := "00000039" + // length after the prefix: 13 + 25 + 5 + 14
		"06" + "00000102" + "00000304" + "00000000" + // type, sat, seq, peer
		"54" + "a1a2000000000000" + "0000000000000000" + "b100000000000000" + // trace trailer
		"50" + "0000000e" + // payload trailer header
		"00000002" + "0100000007" + "0000000009" // two ops: up 7, down 9
	got := hex.EncodeToString(wire(t, m))
	if got != want {
		t.Errorf("frame\n got %s\nwant %s", got, want)
	}
	if m.WireSize() != len(want)/2 {
		t.Errorf("WireSize = %d, frame is %d bytes", m.WireSize(), len(want)/2)
	}
}

func TestMessageLimits(t *testing.T) {
	// Hostile length prefix.
	var hostile bytes.Buffer
	hostile.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadMessage(&hostile); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("hostile frame: %v", err)
	}
	// A length prefix shorter than the header.
	short := []byte{0, 0, 0, headerLen - 5, byte(MsgHello), 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0}
	if _, err := ReadMessage(bytes.NewReader(short)); err == nil {
		t.Error("frame shorter than the header accepted")
	}
	// Truncated stream.
	var trunc bytes.Buffer
	WriteMessage(&trunc, &Message{Type: MsgHello, SatID: 1})
	b := trunc.Bytes()[:trunc.Len()-3]
	if _, err := ReadMessage(bytes.NewReader(b)); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestMsgTypeString(t *testing.T) {
	for typ := MsgHello; typ <= MsgSlotSnapshot; typ++ {
		if strings.HasPrefix(typ.String(), "msgtype(") {
			t.Errorf("type %d has no name", typ)
		}
	}
	if MsgSlotDelta.String() != "slot-delta" || MsgType(0).String() != "msgtype(0)" || MsgType(8).String() != "msgtype(8)" {
		t.Error("String broken")
	}
}

// messages reads c's MetricMessages counter for one direction and type.
func messages(c *Controller, dir string, typ MsgType) int64 {
	return c.reg.Counter(MetricMessages, "dir", dir, "type", typ.String()).Value()
}

// delta is a slot-delta command raising the given peers at sat.
func delta(sat uint32, up ...uint32) *Message {
	ops := make([]SlotDeltaOp, len(up))
	for i, p := range up {
		ops[i] = SlotDeltaOp{Peer: p, Up: true}
	}
	return &Message{Type: MsgSlotDelta, SatID: sat, Payload: EncodeSlotDelta(ops)}
}

func startController(t *testing.T) *Controller {
	t.Helper()
	c, err := ListenController("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestAgentRegistration(t *testing.T) {
	c := startController(t)
	var agents []*Agent
	for i := uint32(1); i <= 3; i++ {
		a, err := DialAgent(c.Addr(), i, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
	}
	defer func() {
		for _, a := range agents {
			a.Close()
		}
	}()
	if err := c.WaitForAgents(3, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if rx, tx := messages(c, "rx", MsgHello), messages(c, "tx", MsgHelloAck); rx != 3 || tx != 3 {
		t.Errorf("counters: rx hello=%d, tx hello-ack=%d", rx, tx)
	}
}

func TestCommandDeliveryAndAck(t *testing.T) {
	c := startController(t)
	var mu sync.Mutex
	var received []*Message
	a, err := DialAgent(c.Addr(), 42, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.OnCommand = func(m *Message) {
		mu.Lock()
		received = append(received, m)
		mu.Unlock()
	}
	acked := make(chan uint32, 8)
	c.OnAck = func(m *Message) { acked <- m.Seq }

	cmd := delta(42, 7)
	if err := c.Send(cmd); err != nil {
		t.Fatal(err)
	}
	select {
	case seq := <-acked:
		if seq != cmd.Seq {
			t.Errorf("ack seq %d, want %d", seq, cmd.Seq)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no ack")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(received) != 1 || !reflect.DeepEqual(received[0].Payload, cmd.Payload) {
		t.Errorf("received = %+v", received)
	}
}

func TestSendToUnknownAgent(t *testing.T) {
	c := startController(t)
	err := c.Send(delta(999))
	if !errors.Is(err, ErrUnknownAgent) {
		t.Errorf("err = %v", err)
	}
}

func TestFailureReportTriggersRepair(t *testing.T) {
	// The Figure 17d loop over real sockets: agent reports a failure, the
	// controller's repair hook pushes replacement commands, the agent
	// receives them; the round trip completes in network + compute time.
	c := startController(t)
	repaired := make(chan *Message, 4)
	c.OnFailure = func(report *Message) []*Message {
		// Repair: tell the reporting satellite to re-link to peer+1.
		return []*Message{delta(report.SatID, report.Peer+1)}
	}
	a, err := DialAgent(c.Addr(), 5, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.OnCommand = func(m *Message) { repaired <- m }

	start := time.Now()
	if err := a.ReportFailure(77); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-repaired:
		if ops, err := DecodeSlotDelta(m.Payload); m.Type != MsgSlotDelta || err != nil ||
			!reflect.DeepEqual(ops, []SlotDeltaOp{{Peer: 78, Up: true}}) {
			t.Errorf("repair = %+v (ops %v, %v)", m, ops, err)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("repair took %v", elapsed)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no repair command")
	}
	if n := messages(c, "rx", MsgFailureReport); n != 1 {
		t.Errorf("counters: rx failure-report=%d", n)
	}
}

func TestAgentDisconnectDeregisters(t *testing.T) {
	c := startController(t)
	a, err := DialAgent(c.Addr(), 9, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForAgents(1, time.Second); err != nil {
		t.Fatal(err)
	}
	a.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && c.AgentCount() != 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if c.AgentCount() != 0 {
		t.Error("agent not deregistered after close")
	}
}

func TestControllerCloseIdempotent(t *testing.T) {
	c, err := ListenController("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}
