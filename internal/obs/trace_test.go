package obs

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTracerRecordsSpans(t *testing.T) {
	tr := &Tracer{}
	tr.Enable(8)
	sp := tr.StartSpan("compile", "slot", "0")
	time.Sleep(time.Millisecond)
	sp.Attr("links", "12")
	sp.End()
	tr.StartSpan("repair").End()

	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	if events[0].Name != "compile" || events[0].Attrs["slot"] != "0" || events[0].Attrs["links"] != "12" {
		t.Errorf("first event = %+v", events[0])
	}
	if events[0].DurUS < 500 {
		t.Errorf("span duration %d µs, expected ≥ 1 ms sleep", events[0].DurUS)
	}
	if events[1].StartUS < events[0].StartUS {
		t.Error("events not in chronological order")
	}
}

func TestTracerDisabledIsInert(t *testing.T) {
	tr := &Tracer{}
	sp := tr.StartSpan("x")
	sp.End() // must not panic or record
	if n := len(tr.Events()); n != 0 {
		t.Errorf("disabled tracer recorded %d events", n)
	}
}

func TestTracerRingWraps(t *testing.T) {
	tr := &Tracer{}
	tr.Enable(4)
	for i := 0; i < 10; i++ {
		tr.StartSpan("s").End()
	}
	if n := len(tr.Events()); n != 4 {
		t.Errorf("ring holds %d, want 4", n)
	}
	if d := tr.Dropped(); d != 6 {
		t.Errorf("dropped = %d, want 6", d)
	}
	// Sequence numbers survive the wrap: the survivors are 7..10.
	for i, ev := range tr.Events() {
		if want := uint64(7 + i); ev.Seq != want {
			t.Errorf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
	var jsonl strings.Builder
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonl.String(), `"dropped":"6"`) {
		t.Errorf("meta record lacks the drop count:\n%s", jsonl.String())
	}
}

func TestTraceJSONLAndChrome(t *testing.T) {
	tr := &Tracer{}
	tr.Enable(16)
	tr.StartSpan("a", "k", "v").End()
	tr.StartSpan("b").End()
	tr.Emit("southbound.agent_connect", "sat", "3")

	var jsonl strings.Builder
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	var evs []Event
	sc := bufio.NewScanner(strings.NewReader(jsonl.String()))
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("JSONL line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	// Meta record first (proc/epoch for the cross-process merger), then
	// the two spans.
	if len(evs) != 4 {
		t.Fatalf("JSONL lines = %d, want 4 (meta + 2 spans + 1 event)", len(evs))
	}
	if evs[0].Name != MetaEventName || evs[0].Attrs["epoch_unix_us"] == "" {
		t.Errorf("meta record = %+v", evs[0])
	}
	if evs[1].Name != "a" || evs[1].Trace == "" || evs[1].Span == "" || evs[1].Instant || evs[1].Seq != 1 {
		t.Errorf("span record missing ids: %+v", evs[1])
	}
	if ev := evs[3]; !ev.Instant || ev.Name != "southbound.agent_connect" || ev.Attrs["sat"] != "3" ||
		ev.Seq != 3 || ev.Span != "" || ev.DurUS != 0 {
		t.Errorf("event record = %+v", ev)
	}

	// The Chrome view comes from `tinyleo-ctl trace` over this same file
	// (tracemerge.Merged.WriteChromeTrace); the tracer has no second writer.
}

func TestSpanContextPropagation(t *testing.T) {
	tr := &Tracer{}
	tr.Enable(16)
	root := tr.StartSpan("mpc.emit")
	rc := root.Context()
	if rc.IsZero() {
		t.Fatal("enabled root span has zero context")
	}
	child := tr.StartSpanCtx(rc, "sb.send")
	cc := child.Context()
	if cc.TraceID != rc.TraceID {
		t.Errorf("child trace %s != root trace %s", cc.TraceID, rc.TraceID)
	}
	if cc.SpanID == rc.SpanID || cc.SpanID.IsZero() {
		t.Errorf("child span id %s not fresh (root %s)", cc.SpanID, rc.SpanID)
	}
	child.End()
	root.End()

	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	// Ring order: child ended first.
	if events[0].Parent != rc.SpanID.String() {
		t.Errorf("child parent = %q, want %q", events[0].Parent, rc.SpanID.String())
	}
	if events[1].Parent != "" {
		t.Errorf("root parent = %q, want empty", events[1].Parent)
	}
	if events[0].Trace != events[1].Trace {
		t.Errorf("trace ids differ: %q vs %q", events[0].Trace, events[1].Trace)
	}
}

func TestSpanContextWire(t *testing.T) {
	tr := &Tracer{}
	tr.Enable(4)
	sc := tr.StartSpan("x").Context()
	b := sc.AppendWire(nil)
	if len(b) != SpanContextWireSize {
		t.Fatalf("wire size = %d, want %d", len(b), SpanContextWireSize)
	}
	got, ok := SpanContextFromWire(b)
	if !ok || got != sc {
		t.Errorf("wire round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}
	if _, ok := SpanContextFromWire(b[:10]); ok {
		t.Error("short wire decode accepted")
	}
	if _, ok := SpanContextFromWire(make([]byte, SpanContextWireSize)); ok {
		t.Error("all-zero wire decode accepted")
	}
}

// Seeded tracers on an injected clock must allocate identical trace IDs
// in allocation order — the chaos determinism guarantee.
func TestSeededIDsDeterministic(t *testing.T) {
	run := func() []string {
		tr := &Tracer{}
		tr.SetClock(func() time.Time { return time.Unix(1_700_000_000, 0) })
		tr.SeedIDs(42)
		tr.Enable(8)
		var ids []string
		for i := 0; i < 4; i++ {
			sp := tr.StartSpan("s")
			ids = append(ids, sp.Context().TraceID.String(), sp.Context().SpanID.String())
			sp.End()
		}
		return ids
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("id %d differs across runs: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestInjectedClockTimestamps(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	tr := &Tracer{}
	tr.SetClock(func() time.Time { return now })
	tr.Enable(4)
	sp := tr.StartSpan("x")
	now = now.Add(1500 * time.Microsecond)
	sp.End()
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].StartUS != 0 || evs[0].DurUS != 1500 {
		t.Errorf("event start=%d dur=%d, want 0/1500", evs[0].StartUS, evs[0].DurUS)
	}
	// An instant event reads the same injected clock and epoch as the
	// spans around it, and so does NowUS.
	now = now.Add(250 * time.Microsecond)
	tr.Emit("mpc.repair", "new_links", "1")
	evs = tr.Events()
	if len(evs) != 2 || !evs[1].Instant || evs[1].StartUS != 1750 || evs[1].DurUS != 0 {
		t.Errorf("event on the injected clock = %+v, want instant at 1750", evs[len(evs)-1])
	}
	if got := tr.NowUS(); got != 1750 {
		t.Errorf("NowUS = %d, want 1750", got)
	}
	if got := tr.EpochUnixMicros(); got != time.Unix(1_700_000_000, 0).UnixMicro() {
		t.Errorf("epoch = %d", got)
	}
}

// The disabled path must stay allocation-free: hot paths start spans
// unconditionally behind a single Enabled() load.
func TestDisabledSpanZeroAllocs(t *testing.T) {
	tr := &Tracer{}
	parent := SpanContext{}
	if allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.StartSpanCtx(parent, "x")
		sp.End()
	}); allocs != 0 {
		t.Errorf("disabled StartSpanCtx allocates %.1f/op, want 0", allocs)
	}
}
