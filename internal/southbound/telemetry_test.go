package southbound

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestTelemetryPayloadRoundTrip(t *testing.T) {
	msgs := []*Message{
		{Type: MsgTelemetry, SatID: 3, Payload: []byte{1, 0, 1, 0}},
		{Type: MsgTelemetry, SatID: 4, Payload: bytes.Repeat([]byte{0xAB}, 1000)},
		// Payload combined with the trace trailer exercises trailer offsets.
		{Type: MsgSlotDelta, SatID: 5, Seq: 9, Payload: []byte{7, 7},
			Trace: obs.SpanContext{TraceID: obs.TraceID{1}, SpanID: obs.SpanID{2}}},
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

func TestTelemetryPayloadLimits(t *testing.T) {
	var buf bytes.Buffer
	big := &Message{Type: MsgTelemetry, Payload: make([]byte, MaxTelemetryPayload+1)}
	if err := WriteMessage(&buf, big); err == nil {
		t.Error("oversized payload accepted")
	}
	// Truncated payload trailer: declared length beyond frame end.
	buf.Reset()
	if err := WriteMessage(&buf, &Message{Type: MsgTelemetry, SatID: 1, Payload: []byte{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)-5] = 0xEE // corrupt the declared payload length
	if _, err := ReadMessage(bytes.NewReader(b)); err == nil {
		t.Error("truncated payload trailer accepted")
	}
}

func TestTelemetryWireSize(t *testing.T) {
	m := &Message{Type: MsgTelemetry, SatID: 1, Payload: []byte{1, 2, 3}}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	if got := m.WireSize(); got != buf.Len() {
		t.Errorf("WireSize = %d, frame is %d bytes", got, buf.Len())
	}
}

// Bytes after the header that do not start with a known marker are
// ignored: a frame whose trailer byte is not payloadMarker decodes to the
// same message minus payload.
func TestTelemetryTrailerIgnoredWithoutMarker(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Type: MsgTelemetry, SatID: 2, Payload: []byte{9, 9}}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Clobber the marker: the trailer becomes unrecognized padding.
	b[headerLen] = 0x00
	got, err := ReadMessage(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if got.Payload != nil || got.SatID != 2 {
		t.Errorf("unmarked trailer not ignored: %+v", got)
	}
}

func TestAgentSendTelemetryReachesController(t *testing.T) {
	c := startController(t)
	type report struct {
		satID   uint32
		payload []byte
	}
	got := make(chan report, 4)
	c.OnTelemetry = func(satID uint32, payload []byte) {
		got <- report{satID, payload}
	}
	a, err := DialAgent(c.Addr(), 42, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	want := []byte{1, 0, 5, 2, 1, 3}
	if err := a.SendTelemetry(want); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.satID != 42 || !bytes.Equal(r.payload, want) {
			t.Errorf("OnTelemetry(%d, %v), want (42, %v)", r.satID, r.payload, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("telemetry never delivered")
	}
	rx := c.reg.Counter(MetricMessages, "dir", "rx", "type", "telemetry")
	deadline := time.Now().Add(2 * time.Second)
	for rx.Value() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := rx.Value(); n != 1 {
		t.Errorf("rx telemetry = %d, want 1", n)
	}
}
