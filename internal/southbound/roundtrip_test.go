package southbound

import (
	"bytes"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// raceEnabled is set by race_test.go: the race detector drops a share of
// sync.Pool puts on purpose, so allocation counts mean nothing under it.
var raceEnabled bool

// loopback is a controller, its delta enforcer and one agent on loopback
// TCP, set up for Push → ack round trips.
type loopback struct {
	e     *DeltaEnforcer
	acked chan struct{}
	up    bool // the peer is in the desired set
}

const loopbackSat = 1

func newLoopback(tb testing.TB) *loopback {
	tb.Helper()
	c, err := ListenController("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	lb := &loopback{e: NewDeltaEnforcer(c), acked: make(chan struct{}, 1)}
	c.OnAck = func(*Message) { lb.acked <- struct{}{} }
	a, err := DialAgent(c.Addr(), loopbackSat, 2*time.Second)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { a.Close() })
	a.OnCommand = func(*Message) {} // set, so the agent runs the callback path
	return lb
}

// roundTrips runs n round trips: each pushes one op — peer 2 established,
// then torn down on the next — and waits for its ack. The first push to
// the satellite is its snapshot, every later one a slot delta.
func (lb *loopback) roundTrips(tb testing.TB, n int) {
	stuck := make(chan struct{})
	watchdog := time.AfterFunc(time.Minute, func() { close(stuck) })
	defer watchdog.Stop()
	peer := []uint32{2}
	for i := 0; i < n; i++ {
		add, del := peer, []uint32(nil)
		if lb.up {
			add, del = nil, peer
		}
		lb.up = !lb.up
		if err := lb.e.Push(loopbackSat, add, del, time.Time{}, obs.SpanContext{}); err != nil {
			tb.Fatal(err)
		}
		select {
		case <-lb.acked:
		case <-stuck:
			tb.Fatalf("round trip %d: no ack within a minute", i)
		}
	}
}

// TestCommandRoundTripAllocationBudget: a Push → agent apply → ack round
// trip allocates nothing, because nothing of it is kept: Push builds its
// Message and payload in pooled scratch, the pending table holds the
// command's bookkeeping by value, and OnCommand borrows the agent's frame.
// Measured: 0.00 objects and 0 B (4 objects and 224 B while the pending
// table kept the pushed Message and payload and the agent copied each
// command for OnCommand; 13 objects and 677 B while both ends read into
// per-message frames and encoded into per-write buffers). The slack
// absorbs a pool refill after a garbage collection; any per-trip
// allocation back on the path breaks the budget.
func TestCommandRoundTripAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled frames on purpose")
	}
	const (
		objects = 0.05
		bytes   = 8
		trips   = 2000
	)
	lb := newLoopback(t)
	lb.roundTrips(t, 100)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lb.roundTrips(t, trips)
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / trips; per > objects {
		t.Errorf("a command round trip allocates %.2f objects, budget %.2f", per, objects)
	}
	if per := float64(after.TotalAlloc-before.TotalAlloc) / trips; per > bytes {
		t.Errorf("a command round trip allocates %.0f B, budget %d", per, bytes)
	}
}

// TestReceivedMessagesOutliveTheirFrames: what OnFailure and OnTelemetry
// receive is theirs, and a Clone that OnCommand takes of its borrowed
// message is its own. Each keeps its first message, 100 more frames with
// other payloads and traces follow through the same connections (and so
// through the same pooled frames), and every kept message still equals
// what was sent.
func TestReceivedMessagesOutliveTheirFrames(t *testing.T) {
	const more = 100
	c := startController(t)
	c.Tracer = new(obs.Tracer) // disabled: traces reach the agent as sent
	var mu sync.Mutex
	var commands, reports []*Message
	var telemetry [][]byte
	c.OnFailure = func(m *Message) []*Message {
		mu.Lock()
		reports = append(reports, m)
		mu.Unlock()
		return nil
	}
	c.OnTelemetry = func(_ uint32, payload []byte) {
		mu.Lock()
		telemetry = append(telemetry, payload)
		mu.Unlock()
	}
	a, err := DialAgentOptions(c.Addr(), 4, 2*time.Second, AgentOptions{Tracer: new(obs.Tracer)})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.OnCommand = func(m *Message) {
		mu.Lock()
		commands = append(commands, m.Clone()) // m is borrowed
		mu.Unlock()
	}
	// The reports and telemetry come from a raw agent, which can put
	// traces and payloads on any frame.
	conn, err := net.DialTimeout("tcp", c.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteMessage(conn, &Message{Type: MsgHello, SatID: 9, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(conn); err != nil { // hello-ack
		t.Fatal(err)
	}

	// message i differs from every other in each field a frame carries;
	// every third has no trace and every fifth no payload.
	message := func(typ MsgType, sat uint32, i int) *Message {
		m := &Message{Type: typ, SatID: sat, Peer: uint32(1000 + i)}
		if i%5 != 0 {
			m.Payload = bytes.Repeat([]byte{byte(i)}, 1+i%7)
		}
		if i%3 != 0 {
			m.Trace = obs.SpanContext{TraceID: obs.TraceID{byte(i), 1}, SpanID: obs.SpanID{byte(i), 2}}
		}
		return m
	}
	var sentCommands, sentReports []*Message
	var sentTelemetry [][]byte
	send := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			cmd := message(MsgSlotDelta, 4, i)
			if err := c.Send(cmd); err != nil {
				t.Fatal(err)
			}
			report := message(MsgFailureReport, 9, i)
			tel := message(MsgTelemetry, 9, 2*i+1)
			for _, m := range []*Message{report, tel} {
				if err := WriteMessage(conn, m); err != nil {
					t.Fatal(err)
				}
			}
			sentCommands = append(sentCommands, cmd)
			sentReports = append(sentReports, report)
			sentTelemetry = append(sentTelemetry, tel.Payload)
		}
		waitUntil(t, 5*time.Second, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(commands) == to && len(reports) == to && len(telemetry) == to
		}, "frames never all arrived")
	}
	send(0, 1)
	send(1, 1+more)

	mu.Lock()
	defer mu.Unlock()
	for i := range sentCommands {
		if !reflect.DeepEqual(commands[i], sentCommands[i]) {
			t.Errorf("OnCommand's message %d became %+v, sent %+v", i, commands[i], sentCommands[i])
		}
		if !reflect.DeepEqual(reports[i], sentReports[i]) {
			t.Errorf("OnFailure's report %d became %+v, sent %+v", i, reports[i], sentReports[i])
		}
		if !bytes.Equal(telemetry[i], sentTelemetry[i]) {
			t.Errorf("OnTelemetry's payload %d became %v, sent %v", i, telemetry[i], sentTelemetry[i])
		}
	}
}
