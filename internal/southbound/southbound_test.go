package southbound

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestMessageRoundTrip(t *testing.T) {
	msgs := []*Message{
		{Type: MsgHello, SatID: 7, Seq: 1},
		{Type: MsgSlotDelta, SatID: 7, Seq: 2, Payload: EncodeSlotDelta([]SlotDeltaOp{{Peer: 9}})},
		{Type: MsgSlotSnapshot, SatID: 7, Seq: 3, Payload: EncodeSlotSnapshot([]uint32{9})},
		{Type: MsgSetRing, SatID: 7, Seq: 6, Peer: 9},
		{Type: MsgSetRing, SatID: 7, Seq: 4, Peer: 11},
		{Type: MsgInstallRoute, SatID: 7, Seq: 5, Cells: []uint16{10, 20, 30, 4049}},
		{Type: MsgFailureReport, SatID: 7, Peer: 0xFFFFFFFF},
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

func TestMessageLimits(t *testing.T) {
	big := &Message{Type: MsgInstallRoute, Cells: make([]uint16, MaxCells+1)}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, big); err == nil {
		t.Error("oversized route accepted")
	}
	// Hostile length prefix.
	var hostile bytes.Buffer
	hostile.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadMessage(&hostile); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("hostile frame: %v", err)
	}
	// A frame within maxFrame that declares more cells than a writer may
	// send: the reader refuses what WriteMessage refuses.
	long := make([]byte, 4+16+2*(MaxCells+1))
	binary.BigEndian.PutUint32(long, uint32(len(long)-4))
	long[4] = byte(MsgInstallRoute)
	binary.BigEndian.PutUint16(long[18:], MaxCells+1)
	if _, err := ReadMessage(bytes.NewReader(long)); err == nil {
		t.Error("reader accepted a route longer than MaxCells")
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
	if MsgSlotDelta.String() != "slot-delta" || msgRetired.String() != "msgtype(3)" || MsgType(200).String() == "" {
		t.Error("String broken")
	}
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
	if c.Count("rx-hello") != 3 || c.Count("tx-hello-ack") != 3 {
		t.Errorf("counters: rx-hello=%d", c.Count("rx-hello"))
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

	cmd := &Message{Type: MsgSetRing, SatID: 42, Peer: 7}
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
	if len(received) != 1 || received[0].Peer != 7 {
		t.Errorf("received = %+v", received)
	}
}

func TestSendToUnknownAgent(t *testing.T) {
	c := startController(t)
	err := c.Send(&Message{Type: MsgSetRing, SatID: 999})
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
		return []*Message{{
			Type: MsgSetRing, SatID: report.SatID, Peer: report.Peer + 1,
		}}
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
		if m.Type != MsgSetRing || m.Peer != 78 {
			t.Errorf("repair = %+v", m)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("repair took %v", elapsed)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no repair command")
	}
	if c.Count("rx-failure-report") != 1 {
		t.Errorf("counters: rx-hello=%d", c.Count("rx-hello"))
	}
}

func TestInstallRouteCarriesCells(t *testing.T) {
	c := startController(t)
	got := make(chan *Message, 1)
	a, err := DialAgent(c.Addr(), 2, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.OnCommand = func(m *Message) { got <- m }
	route := []uint16{100, 200, 300}
	if err := c.Send(&Message{Type: MsgInstallRoute, SatID: 2, Cells: route}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if !reflect.DeepEqual(m.Cells, route) {
			t.Errorf("cells = %v", m.Cells)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("route not delivered")
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
