package flightrec

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// newTestRegistry returns an enabled, test-private registry so SLO
// indicator tests don't share series with the process-wide default.
func newTestRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	return obs.NewRegistry(true)
}

// The ring behind the recorder is the tracer's: events and spans share it,
// the newest records win, and sequence numbers count both kinds.
func TestLogRingKeepsNewestAndCountsDrops(t *testing.T) {
	var tr obs.Tracer
	tr.Enable(4)
	for i := 0; i < 9; i++ {
		tr.Emit(EventName(CompMPC, "tick"), "i", string(rune('0'+i)))
	}
	tr.StartSpan("mpc.emit").End() // a span takes a slot like an event does
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d records, want 4", len(evs))
	}
	// Newest-wins: the survivors are seq 7..10, in order.
	for i, ev := range evs {
		if want := uint64(7 + i); ev.Seq != want {
			t.Fatalf("record %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
	if got := instants(evs); len(got) != 3 || got[2].Attrs["i"] != "8" {
		t.Fatalf("instants = %+v, want the events 6..8", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped() = %d, want 6", got)
	}
}

func TestLogDisabledEmitIsNoop(t *testing.T) {
	var tr obs.Tracer
	tr.Emit(EventName(CompMPC, "tick"))
	if n := len(tr.Events()); n != 0 {
		t.Fatalf("disabled tracer recorded %d events", n)
	}
	tr.Enable(8)
	tr.Disable()
	tr.Emit(EventName(CompMPC, "tick"))
	if n := len(tr.Events()); n != 0 {
		t.Fatalf("re-disabled tracer recorded %d events", n)
	}
	// The package-level spelling is gated by the recorder's own switch,
	// whatever the process tracer's state.
	if Enabled() {
		t.Skip("process-wide recorder enabled by another test")
	}
	obs.EnableTracing(8)
	defer obs.Trace().Disable()
	Emit(CompMPC, "tick")
	if n := len(obs.Trace().Events()); n != 0 {
		t.Fatalf("disabled recorder emitted %d events", n)
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	in := obs.Event{Seq: 7, StartUS: 1234, Name: EventName(CompDataplane, "drop"), Instant: true,
		Attrs: map[string]string{"sat": "3", "reason": "hop limit"}}
	b, err := json.Marshal(line{Event: &in})
	if err != nil {
		t.Fatal(err)
	}
	// A record line is the event's own keys, nothing wrapped around them.
	for _, want := range []string{`"name":"dataplane.drop"`, `"instant":true`, `"seq":7`, `"attrs":{`} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("marshal = %s, want %s in it", b, want)
		}
	}
	if strings.Contains(string(b), `"slot":`) || strings.Contains(string(b), `"slo":`) {
		t.Fatalf("record line carries another payload: %s", b)
	}
	var ln line
	if err := json.Unmarshal(b, &ln); err != nil {
		t.Fatal(err)
	}
	out := ln.Event
	if out == nil || out.Seq != in.Seq || out.StartUS != in.StartUS || out.Name != in.Name || !out.Instant {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
	if out.Attrs["reason"] != "hop limit" || out.Attrs["sat"] != "3" {
		t.Fatalf("attrs lost: %+v", out.Attrs)
	}
	if comp, typ := SplitEventName(out.Name); comp != CompDataplane || typ != "drop" {
		t.Fatalf("SplitEventName = %q, %q", comp, typ)
	}
}

func TestSnapshotterRing(t *testing.T) {
	var s Snapshotter
	s.enable()
	s.buf = s.buf[:3]
	for i := 0; i < 5; i++ {
		s.RecordSlot(SlotState{Time: float64(i) * 100, Kind: "compile",
			InterLinks: [][2]int{{i, i + 1}}})
	}
	slots := s.Slots()
	if len(slots) != 3 {
		t.Fatalf("ring kept %d slots, want 3", len(slots))
	}
	// RecordSlot assigns monotonic slot numbers; ring keeps 2,3,4.
	for i, st := range slots {
		if want := 2 + i; st.Slot != want {
			t.Fatalf("slot %d numbered %d, want %d", i, st.Slot, want)
		}
	}
	// Re-enabling starts an empty ring numbered from 0.
	s.enable()
	s.RecordSlot(SlotState{Kind: "compile"})
	if slots := s.Slots(); len(slots) != 1 || slots[0].Slot != 0 {
		t.Fatalf("after re-enable: %+v", slots)
	}
}

// The recording's gateway and deficit keys are the documented "u->v"
// form, from which a reader recovers the directed edge.
func TestEdgeKeyRoundTrip(t *testing.T) {
	var u, v int
	if n, err := fmt.Sscanf(EdgeKey(12, 345), "%d->%d", &u, &v); n != 2 || err != nil || u != 12 || v != 345 {
		t.Fatalf("EdgeKey(12,345) = %q reads back as %d,%d (%v)", EdgeKey(12, 345), u, v, err)
	}
}

func sampleRecording() *Recording {
	ev := func(seq uint64, us int64, comp, typ string, attrs ...string) obs.Event {
		e := obs.Event{Seq: seq, StartUS: us, Name: EventName(comp, typ), Instant: true}
		if len(attrs) > 0 {
			e.Attrs = map[string]string{}
			for i := 0; i+1 < len(attrs); i += 2 {
				e.Attrs[attrs[i]] = attrs[i+1]
			}
		}
		return e
	}
	return &Recording{
		Proc: "test", EpochUS: 1_700_000_000_000_000, Dropped: 2,
		Slots: []SlotState{
			{Slot: 0, Time: 0, Kind: "compile",
				InterLinks: [][2]int{{1, 2}, {3, 4}}, RingLinks: [][2]int{{1, 3}},
				CellSats: map[int][]int{10: {1, 2}, 20: {3, 4}},
				Deficits: map[string]int{EdgeKey(10, 20): 1}},
			{Slot: 1, Time: 300, Kind: "repair",
				InterLinks: [][2]int{{1, 2}, {5, 6}}, RingLinks: [][2]int{{1, 3}},
				CellSats: map[int][]int{10: {1}, 20: {3, 4}}},
		},
		Records: []obs.Event{
			ev(1, 10, CompMPC, "slot_compiled", "t", "0"),
			ev(2, 20, CompMPC, "isl_fail", "a", "3", "b", "4"),
			{Seq: 3, StartUS: 15, DurUS: 20, Name: "mpc.repair", Trace: "aa", Span: "bb"}, // a span, not the repair event
			ev(4, 30, CompSLO, "slo_breach", "rule", "availability", "expr", "availability>=0.99", "value", "0.5"),
			ev(5, 40, CompMPC, "repair", "new_links", "1"),
			ev(6, 50, CompMPC, "recovered", "inter", "2"),
		},
		SLO: []RuleStatus{{
			Rule:  Rule{Name: "availability", Kind: SLOAvailability, Op: ">=", Threshold: 0.99},
			Value: 0.5, Breached: true, Breaches: 1,
		}},
	}
}

func TestRecordingRoundTripPlainAndGzip(t *testing.T) {
	rec := sampleRecording()
	var plain bytes.Buffer
	if err := rec.Write(&plain); err != nil {
		t.Fatal(err)
	}
	var gzBuf bytes.Buffer
	gz := gzip.NewWriter(&gzBuf)
	if err := rec.Write(gz); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	for name, buf := range map[string]*bytes.Buffer{"plain": &plain, "gzip": &gzBuf} {
		got, err := ReadRecording(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got.Slots) != 2 || len(got.Records) != 6 || len(got.Events()) != 5 || len(got.SLO) != 1 {
			t.Fatalf("%s: read %d slots, %d records, %d events, %d slo", name,
				len(got.Slots), len(got.Records), len(got.Events()), len(got.SLO))
		}
		if got.Proc != "test" || got.EpochUS != rec.EpochUS || got.Dropped != 2 {
			t.Fatalf("%s: meta mangled: %+v", name, got)
		}
		if got.Slots[1].Kind != "repair" || got.Events()[1].Attrs["a"] != "3" || got.Records[2].Span != "bb" {
			t.Fatalf("%s: payload mangled: %+v", name, got.Slots[1])
		}
		if !got.SLO[0].Breached || got.SLO[0].Value != 0.5 {
			t.Fatalf("%s: SLO status mangled: %+v", name, got.SLO[0])
		}
	}
}

func TestRuleStatusJSONNaNValue(t *testing.T) {
	st := RuleStatus{Rule: Rule{Name: "repair_p99", Kind: SLORepairP99, Op: "<=", Threshold: 0.2},
		Value: math.NaN()}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"value":null`) {
		t.Fatalf("NaN should serialize as null: %s", b)
	}
	var back RuleStatus
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(back.Value) {
		t.Fatalf("null should come back as NaN, got %v", back.Value)
	}
}

func TestParseRules(t *testing.T) {
	rules, err := ParseRules("availability>=0.99, deficit_ratio<=0.05,repair_p99<=0.1,tinyleo_mpc_compile_total>=3")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 4 {
		t.Fatalf("parsed %d rules, want 4", len(rules))
	}
	if rules[0].Kind != SLOAvailability || rules[0].Op != ">=" || rules[0].Threshold != 0.99 {
		t.Fatalf("rule 0 = %+v", rules[0])
	}
	if rules[1].Kind != SLODeficitRatio || rules[1].Threshold != 0.05 {
		t.Fatalf("rule 1 = %+v", rules[1])
	}
	// Unknown names fall back to raw-metric rules.
	if rules[3].Kind != SLOMetric || rules[3].Metric != "tinyleo_mpc_compile_total" {
		t.Fatalf("rule 3 = %+v", rules[3])
	}
	if rules[3].Expr() != "tinyleo_mpc_compile_total>=3" {
		t.Fatalf("Expr() = %q", rules[3].Expr())
	}
	// Each bad rule is refused with an error that names it. The last four
	// would parse into rules that never breach: a series named "" reads
	// NaN forever, and no value compares past a NaN threshold.
	for _, bad := range []string{"availability=0.9", "repair_p99<=abc", ">=1", " <=0",
		"availability>=NaN", "tinyleo_fleet_agents<=+Inf"} {
		_, err := ParseRules("deficit_ratio<=0.1," + bad)
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(strings.TrimSpace(bad))) {
			t.Errorf("ParseRules(%q) = %v, want an error naming the rule", bad, err)
		}
	}
	if rules, err := ParseRules(" , "); err != nil || len(rules) != 0 {
		t.Fatalf("blank spec: %v, %v", rules, err)
	}
}

func TestEngineBreachAndRecoveryTransitions(t *testing.T) {
	reg := newTestRegistry(t)
	avail := reg.Gauge("tinyleo_mpc_enforcement_ratio")
	var log obs.Tracer
	log.Enable(64)
	eng := NewEngine(&log, []*obs.Registry{reg}, Rule{Name: "availability", Kind: SLOAvailability, Op: ">=", Threshold: 0.95})

	avail.Set(0.80)
	st := eng.Eval()
	if !st[0].Breached || st[0].Breaches != 1 {
		t.Fatalf("below threshold should breach: %+v", st[0])
	}
	// Staying breached is not a new transition.
	avail.Set(0.70)
	if st = eng.Eval(); st[0].Breaches != 1 {
		t.Fatalf("re-breach counted twice: %+v", st[0])
	}
	avail.Set(0.99)
	if st = eng.Eval(); st[0].Breached {
		t.Fatalf("above threshold still breached: %+v", st[0])
	}
	var names []string
	for _, ev := range log.Events() {
		names = append(names, ev.Name)
	}
	if len(names) != 2 || names[0] != "slo.slo_breach" || names[1] != "slo.slo_recovered" {
		t.Fatalf("SLO events = %v, want [slo.slo_breach slo.slo_recovered]", names)
	}
}

func TestEngineHistogramQuantileIndicator(t *testing.T) {
	reg := newTestRegistry(t)
	h := reg.Histogram("tinyleo_mpc_repair_stage_seconds", nil, "stage", "total")
	for i := 0; i < 100; i++ {
		h.Observe(0.05) // all repairs at 50 ms
	}
	eng := NewEngine(nil, []*obs.Registry{reg}, Rule{Name: "repair_p99", Kind: SLORepairP99, Op: "<=", Threshold: 0.2})
	st := eng.Eval()
	if st[0].Breached {
		t.Fatalf("50 ms p99 breaches 200 ms threshold: %+v", st[0])
	}
	if math.IsNaN(st[0].Value) || st[0].Value <= 0 || st[0].Value > 0.2 {
		t.Fatalf("p99 = %v, want in (0, 0.2]", st[0].Value)
	}
	// Tighten below the observed latency: must breach.
	eng2 := NewEngine(nil, []*obs.Registry{reg}, Rule{Name: "repair_p99", Kind: SLORepairP99, Op: "<=", Threshold: 0.001})
	if st := eng2.Eval(); !st[0].Breached {
		t.Fatalf("50 ms p99 should breach 1 ms threshold: %+v", st[0])
	}
}

func TestEngineUnknownIndicatorIsNaNNotBreach(t *testing.T) {
	reg := newTestRegistry(t)
	ghost := Rule{Name: "ghost", Kind: SLOMetric, Metric: "no_such_series", Op: ">=", Threshold: 1}
	eng := NewEngine(nil, []*obs.Registry{reg}, ghost)
	st := eng.Eval()
	if !math.IsNaN(st[0].Value) || st[0].Breached {
		t.Fatalf("missing series should be NaN and healthy: %+v", st[0])
	}
	// A finished run will never observe it: Score fails the rule.
	if st, n := Score([]Rule{ghost}, obs.Snapshot(reg)); n != 1 || !st[0].Breached || !math.IsNaN(st[0].Value) {
		t.Fatalf("Score of an unobservable rule: %d breached, %+v", n, st)
	}
}

func TestFailureSequences(t *testing.T) {
	rec := sampleRecording()
	seqs := rec.FailureSequences()
	if len(seqs) != 1 {
		t.Fatalf("got %d sequences, want 1", len(seqs))
	}
	s := seqs[0]
	if len(s.Failures) != 1 || s.Failures[0].Name != "mpc.isl_fail" {
		t.Fatalf("failures = %+v", s.Failures)
	}
	// The mpc.repair *span* between them is not the repair event.
	if s.Repair == nil || !s.Repair.Instant || s.Outcome == nil || s.Outcome.Name != "mpc.recovered" {
		t.Fatalf("sequence incomplete: repair=%v outcome=%v", s.Repair, s.Outcome)
	}
}

func TestDiffSlots(t *testing.T) {
	rec := sampleRecording()
	d := DiffSlots(&rec.Slots[0], &rec.Slots[1])
	if len(d.Inter.Added) != 1 || d.Inter.Added[0] != [2]int{5, 6} {
		t.Fatalf("Inter.Added = %v", d.Inter.Added)
	}
	if len(d.Inter.Removed) != 1 || d.Inter.Removed[0] != [2]int{3, 4} {
		t.Fatalf("Inter.Removed = %v", d.Inter.Removed)
	}
	if d.Ring.Size() != 0 {
		t.Fatalf("ring churn = %v", d.Ring)
	}
	if got := d.CellsShrunk[10]; got != -1 {
		t.Fatalf("cell 10 shrink = %d, want -1", got)
	}
	if d.DeficitDelta != -1 {
		t.Fatalf("DeficitDelta = %d, want -1", d.DeficitDelta)
	}
	if d.Churn() != 2 {
		t.Fatalf("Churn() = %d, want 2", d.Churn())
	}
}

func TestWriteReportSections(t *testing.T) {
	rec := sampleRecording()
	var buf bytes.Buffer
	if err := rec.WriteReport(&buf, InspectOptions{Events: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"== recording ==",
		"== per-slot topology ==",
		"slot 1 (t=300s, repair)",
		"== failure sequences ==",
		`process "test"`,
		"5 events, 1 spans (2 older records overwritten)",
		"mpc.isl_fail a=3 b=4",
		"== SLO breaches ==",
		"availability>=0.99",
		"== final SLO status ==",
		"BREACHED",
		"== event log ==",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestSaveAndReadRecordingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.jsonl.gz")
	obs.Trace().SetProcess("flightrec-test")
	defer obs.Trace().SetProcess("")
	Enable(Options{})
	defer Disable()
	defer obs.Trace().Disable()
	sp := obs.StartSpan("mpc.emit", "slot", "0")
	Emit(CompMPC, "slot_compiled", "t", "0")
	sp.End()
	RecordSlot(SlotState{Time: 0, Kind: "compile", InterLinks: [][2]int{{1, 2}}})
	summary, err := SaveRecording(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(summary, "1 slots, 1 events, 1 spans") {
		t.Fatalf("summary = %q", summary)
	}
	rec, err := ReadRecordingFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Proc != "flightrec-test" || rec.EpochUS != obs.Trace().EpochUnixMicros() {
		t.Fatalf("meta = %+v", rec)
	}
	// One ring, one clock: the event was emitted inside the span, and the
	// file places it there — to the microsecond a span's start and its
	// duration, each truncated on its own, can lose.
	if len(rec.Records) != 2 {
		t.Fatalf("records = %+v", rec.Records)
	}
	ev, span := rec.Records[0], rec.Records[1]
	if !ev.Instant || ev.Name != "mpc.slot_compiled" || span.Name != "mpc.emit" ||
		ev.StartUS < span.StartUS || ev.StartUS > span.StartUS+span.DurUS+1 {
		t.Fatalf("event %+v not inside span %+v", ev, span)
	}
	if len(rec.Slots) != 1 || rec.Slots[0].InterLinks[0] != [2]int{1, 2} {
		t.Fatalf("slots = %+v", rec.Slots)
	}
	// Default rules ran against an empty registry: present, none breached
	// (NaN indicators never breach).
	if len(rec.SLO) == 0 {
		t.Fatal("recording lost SLO status")
	}
	for _, st := range rec.SLO {
		if st.Breached {
			t.Fatalf("empty-registry indicator breached: %+v", st)
		}
	}
}

// The one reader takes what every writer of the format produces: a
// span-only tracer dump (bench/, /trace), the meta record anywhere or
// absent, gzip, and lines longer than any fixed scanner cap.
func TestReadJSONLMetaAndErrors(t *testing.T) {
	in := `{"name":"` + obs.MetaEventName + `","attrs":{"proc":"p1","epoch_unix_us":"123"}}
{"name":"x","start_us":5,"dur_us":2}
`
	d, err := ReadRecording(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.Proc != "p1" || d.EpochUS != 123 || len(d.Records) != 1 || len(d.Events()) != 0 || d.Records[0].DurUS != 2 {
		t.Fatalf("dump = %+v", d)
	}
	if _, err := ReadRecording(strings.NewReader("not json\n")); err == nil {
		t.Error("malformed JSONL accepted")
	} else if !strings.Contains(err.Error(), "line 1") {
		t.Errorf("error %q does not name the line", err)
	}
	// No meta record, no trailing newline: epoch 0, unnamed.
	d, err = ReadRecording(strings.NewReader(`{"name":"x","start_us":5,"dur_us":2}`))
	if err != nil || d.Proc != "" || d.EpochUS != 0 || len(d.Records) != 1 {
		t.Fatalf("meta-less dump = %+v, %v", d, err)
	}

	// What Tracer.WriteJSONL writes (the span-only files bench/ emits).
	var tr obs.Tracer
	tr.SetProcess("bench/loop-plan")
	tr.Enable(8)
	root := tr.StartSpan("op")
	tr.StartSpanCtx(root.Context(), "mpc.compile").End()
	root.End()
	var dump bytes.Buffer
	if err := tr.WriteJSONL(&dump); err != nil {
		t.Fatal(err)
	}
	d, err = ReadRecording(&dump)
	if err != nil {
		t.Fatal(err)
	}
	if d.Proc != "bench/loop-plan" || d.EpochUS != tr.EpochUnixMicros() || len(d.Records) != 2 ||
		d.Records[0].Parent != d.Records[1].Span || len(d.Slots) != 0 || d.SLO != nil {
		t.Fatalf("tracer dump = %+v", d)
	}

	// A slot line over 4 MiB (the old scanner's cap), gzip-compressed.
	edge := strings.Repeat("9", 5<<20) + "->1"
	big := SlotState{Slot: 3, Kind: "compile", Deficits: map[string]int{edge: 2}}
	var gzBuf bytes.Buffer
	gz := gzip.NewWriter(&gzBuf)
	if err := (&Recording{Proc: "big", Slots: []SlotState{big}}).Write(gz); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = ReadRecording(&gzBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Slots) != 1 || d.Slots[0].Slot != 3 || d.Slots[0].Deficits[edge] != 2 {
		t.Fatalf("big slot line: %d slots", len(d.Slots))
	}
}
