package southbound

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/obs"
)

// newTestTracer builds an enabled, seeded tracer on a private clock — one
// per emulated process, so cross-"process" causality comes only from wire
// propagation, never from sharing a tracer.
func newTestTracer(seed uint64) *obs.Tracer {
	tr := &obs.Tracer{}
	tr.SeedIDs(seed)
	tr.Enable(256)
	return tr
}

// eventsByName indexes a tracer ring by span name.
func eventsByName(tr *obs.Tracer) map[string][]obs.Event {
	out := map[string][]obs.Event{}
	for _, ev := range tr.Events() {
		out[ev.Name] = append(out[ev.Name], ev)
	}
	return out
}

func TestMessageTraceRoundTrip(t *testing.T) {
	tr := newTestTracer(7)
	sc := tr.StartSpan("x").Context()

	m := &Message{Type: MsgSlotDelta, SatID: 4, Seq: 9, Payload: []byte{1, 2, 3}, Trace: sc}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	if got := buf.Len(); got != m.WireSize() {
		t.Fatalf("frame = %d bytes, WireSize = %d", got, m.WireSize())
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != sc {
		t.Errorf("trace context: got %+v, want %+v", got.Trace, sc)
	}
	if len(got.Payload) != 3 || got.Payload[2] != 3 {
		t.Errorf("payload corrupted by the trace trailer: %v", got.Payload)
	}

	// No context → no trailer bytes.
	bare := &Message{Type: MsgSlotDelta, SatID: 4, Seq: 9, Payload: []byte{1, 2, 3}}
	if d := m.WireSize() - bare.WireSize(); d != traceTrailerLen {
		t.Errorf("trailer adds %d bytes, want %d", d, traceTrailerLen)
	}
	var bbuf bytes.Buffer
	if err := WriteMessage(&bbuf, bare); err != nil {
		t.Fatal(err)
	}
	rb, err := ReadMessage(&bbuf)
	if err != nil {
		t.Fatal(err)
	}
	if !rb.Trace.IsZero() {
		t.Errorf("bare message decoded trace %+v", rb.Trace)
	}
}

// A frame whose trailing bytes lack the trace marker (e.g. future protocol
// extensions) must not be misread as a span context.
func TestTraceTrailerRequiresMarker(t *testing.T) {
	m := &Message{Type: MsgSlotDelta, SatID: 1, Seq: 2,
		Trace: obs.SpanContext{TraceID: obs.TraceID{1}, SpanID: obs.SpanID{2}}}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	frame[4+headerLen-4] ^= 0xFF // corrupt the marker byte (first trailer byte)
	got, err := ReadMessage(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Trace.IsZero() {
		t.Errorf("unmarked trailer decoded as trace %+v", got.Trace)
	}
}

// One command, one causal tree across two tracers: the producer's root is
// continued by the controller's sb.send, the wire context is rewritten to
// the send span, the agent's apply parents to it, and the ack closes the
// loop — with emit-to-applied latency recorded.
func TestCommandTraceCausalTree(t *testing.T) {
	ctlTr := newTestTracer(1)
	agentTr := newTestTracer(2)

	c, err := ListenController("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Tracer = ctlTr

	applied := make(chan obs.SpanContext, 1)
	a, err := DialAgentOptions(c.Addr(), 5, time.Second, AgentOptions{Tracer: agentTr})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.OnCommand = func(m *Message) { applied <- m.Trace }

	root := ctlTr.StartSpan("mpc.emit")
	m := delta(5, 6)
	m.Trace, m.Emitted = root.Context(), time.Now()
	if err := c.Send(m); err != nil {
		t.Fatal(err)
	}
	var applyCtx obs.SpanContext
	select {
	case applyCtx = <-applied:
	case <-time.After(2 * time.Second):
		t.Fatal("command never applied")
	}
	waitUntil(t, 2*time.Second, func() bool { return c.PendingAcks() == 0 },
		"command never acked")
	root.End()

	ctlEvents := eventsByName(ctlTr)
	sends := ctlEvents["sb.send"]
	if len(sends) != 1 {
		t.Fatalf("sb.send spans = %d, want 1", len(sends))
	}
	send := sends[0]
	if send.Trace != root.Context().TraceID.String() {
		t.Errorf("sb.send trace = %s, want producer trace %s", send.Trace, root.Context().TraceID)
	}
	if send.Parent != root.Context().SpanID.String() {
		t.Errorf("sb.send parent = %s, want mpc.emit span %s", send.Parent, root.Context().SpanID)
	}
	if send.Attrs["sat"] != "5" || send.Attrs["type"] != "slot-delta" || send.Attrs["seq"] == "" {
		t.Errorf("sb.send attrs = %v", send.Attrs)
	}

	// Wire context seen by the agent callback is the apply span (rewritten
	// from the send context), same trace.
	if applyCtx.TraceID != root.Context().TraceID {
		t.Errorf("callback trace = %s, want %s", applyCtx.TraceID, root.Context().TraceID)
	}
	applies := eventsByName(agentTr)["agent.apply"]
	if len(applies) != 1 {
		t.Fatalf("agent.apply spans = %d, want 1", len(applies))
	}
	if applies[0].Trace != send.Trace || applies[0].Parent != send.Span {
		t.Errorf("agent.apply trace/parent = %s/%s, want %s/%s",
			applies[0].Trace, applies[0].Parent, send.Trace, send.Span)
	}
	if applies[0].Span != applyCtx.SpanID.String() {
		t.Errorf("callback saw span %s, apply recorded %s", applyCtx.SpanID, applies[0].Span)
	}

	acks := ctlEvents["sb.ack"]
	if len(acks) != 1 {
		t.Fatalf("sb.ack spans = %d, want 1", len(acks))
	}
	if acks[0].Trace != send.Trace || acks[0].Parent != send.Span {
		t.Errorf("sb.ack trace/parent = %s/%s, want child of sb.send %s/%s",
			acks[0].Trace, acks[0].Parent, send.Trace, send.Span)
	}

	if n := c.reg.Histogram(MetricCmdE2E, obs.DefBuckets).Count(); n != 1 {
		t.Errorf("cmd e2e observations = %d, want 1", n)
	}
}
