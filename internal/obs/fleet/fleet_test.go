package fleet

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// apply merges a payload sequence into a fresh dict the way the
// aggregator would, returning decoded reports.
func decodeAll(t *testing.T, payloads ...[]byte) []*Report {
	t.Helper()
	var dict []Desc
	var out []*Report
	for i, p := range payloads {
		rep, err := Decode(p, dict)
		if err != nil {
			t.Fatalf("decode report %d: %v", i, err)
		}
		if rep.Baseline {
			dict = nil
		}
		for id := len(dict); ; id++ {
			d, ok := rep.NewDescs[id]
			if !ok {
				break
			}
			dict = append(dict, d)
		}
		out = append(out, rep)
	}
	return out
}

func TestEncoderBaselineAndDeltas(t *testing.T) {
	reg := obs.NewRegistry(true)
	c := reg.Counter("reqs_total", "type", "hello")
	g := reg.Gauge("queue_depth")
	h := reg.Histogram("latency_s", []float64{0.1, 1})

	c.Add(5)
	g.Set(2.5)
	h.Observe(0.05)
	h.Observe(3)

	enc := NewEncoder(reg)
	p1, seq1 := enc.Encode()
	if seq1 != 1 {
		t.Fatalf("seq1 = %d, want 1", seq1)
	}

	// No changes: empty heartbeat report.
	p2, seq2 := enc.Encode()
	if seq2 != 2 {
		t.Fatalf("seq2 = %d, want 2", seq2)
	}

	c.Add(3)
	h.Observe(0.5)
	p3, _ := enc.Encode()

	reps := decodeAll(t, p1, p2, p3)
	r1, r2, r3 := reps[0], reps[1], reps[2]

	if !r1.Baseline || len(r1.Entries) != 3 || len(r1.NewDescs) != 3 {
		t.Fatalf("baseline report: baseline=%v entries=%d descs=%d",
			r1.Baseline, len(r1.Entries), len(r1.NewDescs))
	}
	if d := r1.NewDescs[0]; d.Name != "reqs_total" || d.Kind != obs.KindCounter ||
		len(d.Labels) != 2 || d.Labels[0] != "type" || d.Labels[1] != "hello" {
		t.Fatalf("desc 0 = %+v", d)
	}
	if r1.Entries[0].CounterDelta != 5 {
		t.Fatalf("baseline counter = %d, want 5", r1.Entries[0].CounterDelta)
	}
	if r1.Entries[1].GaugeValue != 2.5 {
		t.Fatalf("baseline gauge = %v, want 2.5", r1.Entries[1].GaugeValue)
	}
	he := r1.Entries[2]
	if he.CountDelta != 2 || he.SumDelta != 3.05 ||
		len(he.BucketDeltas) != 3 || he.BucketDeltas[0] != 1 || he.BucketDeltas[2] != 1 {
		t.Fatalf("baseline histogram = %+v", he)
	}

	if r2.Baseline || len(r2.Entries) != 0 {
		t.Fatalf("heartbeat report: baseline=%v entries=%d", r2.Baseline, len(r2.Entries))
	}
	if len(p2) > 8 {
		t.Fatalf("heartbeat report is %d bytes, want tiny", len(p2))
	}

	if r3.Baseline || len(r3.NewDescs) != 0 || len(r3.Entries) != 2 {
		t.Fatalf("delta report: %+v", r3)
	}
	if r3.Entries[0].ID != 0 || r3.Entries[0].CounterDelta != 3 {
		t.Fatalf("delta counter entry = %+v", r3.Entries[0])
	}
	if r3.Entries[1].ID != 2 || r3.Entries[1].CountDelta != 1 || r3.Entries[1].BucketDeltas[1] != 1 {
		t.Fatalf("delta histogram entry = %+v", r3.Entries[1])
	}
}

func TestEncoderResetReshipsAbsolutes(t *testing.T) {
	reg := obs.NewRegistry(true)
	c := reg.Counter("x_total")
	c.Add(7)
	enc := NewEncoder(reg)
	enc.Encode()
	c.Add(2)
	enc.Reset()
	p, seq := enc.Encode()
	if seq != 2 {
		t.Fatalf("seq after reset = %d, want 2 (monotonic across resets)", seq)
	}
	rep := decodeAll(t, p)[0]
	if !rep.Baseline || len(rep.Entries) != 1 || rep.Entries[0].CounterDelta != 9 {
		t.Fatalf("post-reset report = %+v", rep)
	}
}

func TestEncoderNewSeriesMidSession(t *testing.T) {
	reg := obs.NewRegistry(true)
	reg.Counter("a_total").Inc()
	enc := NewEncoder(reg)
	enc.Encode()
	reg.Counter("b_total", "k", "v").Add(4)
	p, _ := enc.Encode()
	rep, err := Decode(p, []Desc{{Kind: obs.KindCounter, Name: "a_total"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Baseline || len(rep.NewDescs) != 1 || rep.NewDescs[1].Name != "b_total" {
		t.Fatalf("mid-session report = %+v", rep)
	}
	if rep.Entries[0].ID != 1 || rep.Entries[0].CounterDelta != 4 {
		t.Fatalf("mid-session entry = %+v", rep.Entries[0])
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	reg := obs.NewRegistry(true)
	reg.Counter("a_total").Inc()
	enc := NewEncoder(reg)
	p, _ := enc.Encode()

	cases := map[string][]byte{
		"empty":        {},
		"bad version":  {99, 0, 1, 0},
		"truncated":    p[:len(p)-1],
		"trailing":     append(append([]byte{}, p...), 0xFF),
		"unknown kind": {Version, flagBaseline, 1, 1, 0, 9, 1, 'x', 0, 1},
	}
	for name, buf := range cases {
		if _, err := Decode(buf, nil); err == nil {
			t.Errorf("%s: decode accepted malformed payload", name)
		}
	}
	// Non-baseline report referencing an unknown series ID.
	if _, err := Decode([]byte{Version, 0, 2, 1, 5, 1}, nil); err == nil {
		t.Error("unknown series id accepted")
	}
}

func newTestAggregator(now *time.Time, log *obs.Tracer) *Aggregator {
	return NewAggregator(Options{
		Clock:       func() time.Time { return *now },
		LagAfter:    3 * time.Second,
		SilentAfter: 9 * time.Second,
		Tracer:      log,
	})
}

func TestAggregatorRollupEqualsAgentSums(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	agg := newTestAggregator(&now, &obs.Tracer{})

	type ag struct {
		reg *obs.Registry
		c   *obs.Counter
		h   *obs.Histogram
		enc *Encoder
	}
	agents := map[uint32]*ag{}
	for _, id := range []uint32{1, 2, 3} {
		reg := obs.NewRegistry(true)
		a := &ag{
			reg: reg,
			c:   reg.Counter("pkts_total", "dir", "rx"),
			h:   reg.Histogram("lat_s", []float64{0.1, 1}),
		}
		a.enc = NewEncoder(reg)
		agents[id] = a
	}
	agents[1].c.Add(10)
	agents[2].c.Add(20)
	agents[3].c.Add(30)
	agents[1].h.Observe(0.05)
	agents[2].h.Observe(0.5)
	agents[3].h.Observe(5)

	flush := func() {
		for _, id := range []uint32{1, 2, 3} {
			p, _ := agents[id].enc.Encode()
			if err := agg.HandleReport(id, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	flush()
	agents[1].c.Add(1)
	agents[2].h.Observe(0.5)
	flush()

	var gotC int64
	var gotHC int64
	for _, s := range agg.Samples() {
		switch s.Name {
		case "pkts_total":
			gotC += int64(s.Value)
		case "lat_s":
			gotHC += s.Count
		}
	}
	if gotC != 61 {
		t.Fatalf("rollup pkts_total sum = %d, want 61", gotC)
	}
	if gotHC != 4 {
		t.Fatalf("rollup lat_s count = %d, want 4", gotHC)
	}

	for _, s := range agg.TotalsSamples() {
		if s.Name == "pkts_total" {
			if s.Labels["agent"] != "" {
				t.Fatalf("totals kept agent label: %v", s.Labels)
			}
			if int64(s.Value) != 61 {
				t.Fatalf("totals pkts_total = %v, want 61", s.Value)
			}
		}
		if s.Name == "lat_s" && (s.Count != 4 || s.Buckets[1] != 2) {
			t.Fatalf("totals lat_s = %+v", s)
		}
	}
}

func TestAggregatorBaselineReshipDoesNotDoubleCount(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	agg := newTestAggregator(&now, &obs.Tracer{})
	reg := obs.NewRegistry(true)
	c := reg.Counter("x_total")
	h := reg.Histogram("h_s", []float64{1})
	enc := NewEncoder(reg)

	c.Add(5)
	h.Observe(0.5)
	p, _ := enc.Encode()
	if err := agg.HandleReport(7, p); err != nil {
		t.Fatal(err)
	}
	// Send failure: encoder resets, next report re-ships absolutes.
	c.Add(2)
	h.Observe(2)
	enc.Reset()
	p, _ = enc.Encode()
	if err := agg.HandleReport(7, p); err != nil {
		t.Fatal(err)
	}
	for _, s := range agg.Samples() {
		if s.Name == "x_total" && int64(s.Value) != 7 {
			t.Fatalf("x_total = %v, want 7 (no double count)", s.Value)
		}
		if s.Name == "h_s" && (s.Count != 2 || s.Buckets[0] != 1 || s.Buckets[1] != 1) {
			t.Fatalf("h_s = %+v, want count 2", s)
		}
	}
}

func TestAggregatorStalenessTransitions(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	var log obs.Tracer
	log.Enable(64)
	var transitions []string
	agg := NewAggregator(Options{
		Clock:       func() time.Time { return now },
		LagAfter:    3 * time.Second,
		SilentAfter: 9 * time.Second,
		Tracer:      &log,
		OnTransition: func(agent uint32, from, to State) {
			transitions = append(transitions, string(from)+">"+string(to))
		},
	})
	reg := obs.NewRegistry(true)
	reg.Counter("x_total").Inc()
	enc := NewEncoder(reg)
	p, _ := enc.Encode()
	if err := agg.HandleReport(4, p); err != nil {
		t.Fatal(err)
	}

	states := func() State { return agg.Agents()[0].State }
	agg.Tick()
	if s := states(); s != StateHealthy {
		t.Fatalf("state = %s, want healthy", s)
	}
	now = now.Add(4 * time.Second)
	agg.Tick()
	if s := states(); s != StateLagging {
		t.Fatalf("state after 4s = %s, want lagging", s)
	}
	now = now.Add(6 * time.Second)
	agg.Tick()
	if s := states(); s != StateSilent {
		t.Fatalf("state after 10s = %s, want silent", s)
	}
	// A fresh report recovers the agent on the next tick.
	p, _ = enc.Encode()
	if err := agg.HandleReport(4, p); err != nil {
		t.Fatal(err)
	}
	agg.Tick()
	if s := states(); s != StateHealthy {
		t.Fatalf("state after report = %s, want healthy", s)
	}

	want := []string{"healthy>lagging", "lagging>silent", "silent>healthy"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
	var types []string
	for _, ev := range log.Events() {
		if typ, ok := strings.CutPrefix(ev.Name, "fleet."); ok {
			types = append(types, typ)
		}
	}
	wantEv := []string{"agent_lagging", "agent_silent", "agent_recovered"}
	if len(types) != len(wantEv) {
		t.Fatalf("events = %v, want %v", types, wantEv)
	}
	for i := range wantEv {
		if types[i] != wantEv[i] {
			t.Fatalf("events = %v, want %v", types, wantEv)
		}
	}
}

func TestAggregatorSeqGapsAndStaleDrops(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	agg := newTestAggregator(&now, &obs.Tracer{})
	reg := obs.NewRegistry(true)
	c := reg.Counter("x_total")
	enc := NewEncoder(reg)

	c.Inc()
	p1, _ := enc.Encode()
	c.Inc()
	enc.Encode() // lost in transit
	c.Inc()
	p3, _ := enc.Encode()

	if err := agg.HandleReport(9, p1); err != nil {
		t.Fatal(err)
	}
	if err := agg.HandleReport(9, p3); err != nil {
		t.Fatal(err)
	}
	av := agg.Agents()[0]
	if av.Gaps != 1 || av.LastSeq != 3 {
		t.Fatalf("gaps=%d lastSeq=%d, want 1/3", av.Gaps, av.LastSeq)
	}
	// Replaying an old seq must not re-apply deltas.
	if err := agg.HandleReport(9, p3); err != nil {
		t.Fatal(err)
	}
	for _, s := range agg.Samples() {
		if s.Name == "x_total" && int64(s.Value) != 2 {
			t.Fatalf("x_total = %v, want 2 (gap lost 1, dup ignored)", s.Value)
		}
	}
}

func TestAggregatorMalformedCountsDecodeError(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	agg := newTestAggregator(&now, &obs.Tracer{})
	if err := agg.HandleReport(1, []byte{99}); err == nil {
		t.Fatal("malformed report accepted")
	}
	if v := agg.View(); v.DecodeErrors != 1 {
		t.Fatalf("decode_errors = %d, want 1", v.DecodeErrors)
	}
}

func TestFleetViewHTTP(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	agg := newTestAggregator(&now, &obs.Tracer{})
	reg := obs.NewRegistry(true)
	reg.Counter("x_total").Add(3)
	enc := NewEncoder(reg)
	p, _ := enc.Encode()
	if err := agg.HandleReport(2, p); err != nil {
		t.Fatal(err)
	}
	agg.Tick()

	rec := httptest.NewRecorder()
	agg.ServeHTTP(rec, httptest.NewRequest("GET", "/fleet", nil))
	var v View
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("unmarshal /fleet: %v", err)
	}
	if len(v.Agents) != 1 || v.Agents[0].ID != 2 || v.Agents[0].State != StateHealthy {
		t.Fatalf("agents = %+v", v.Agents)
	}
	if v.States["healthy"] != 1 {
		t.Fatalf("states = %v", v.States)
	}
	found := false
	for _, s := range v.Totals {
		if s.Name == "x_total" && int64(s.Value) == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("totals missing x_total=3: %+v", v.Totals)
	}
}

func TestReporterFlushAndReset(t *testing.T) {
	reg := obs.NewRegistry(true)
	c := reg.Counter("x_total")
	enc := NewEncoder(reg)

	var mu sync.Mutex
	var sent [][]byte
	fail := false
	rep := NewReporter(enc, func(p []byte) error {
		mu.Lock()
		defer mu.Unlock()
		if fail {
			return errSendFailed
		}
		sent = append(sent, append([]byte(nil), p...))
		return nil
	})

	c.Add(4)
	if _, err := rep.Flush(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	fail = true
	mu.Unlock()
	c.Add(2)
	if _, err := rep.Flush(); err == nil {
		t.Fatal("flush succeeded despite send failure")
	}
	mu.Lock()
	fail = false
	mu.Unlock()
	c.Add(1)
	if _, err := rep.Flush(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(sent) != 2 {
		t.Fatalf("sent %d reports, want 2", len(sent))
	}
	reps := decodeAll(t, sent...)
	if !reps[0].Baseline || reps[0].Entries[0].CounterDelta != 4 {
		t.Fatalf("first report = %+v", reps[0])
	}
	// After the failed send the session reset: the next delivered report
	// is a baseline carrying the full absolute value — nothing lost.
	if !reps[1].Baseline || reps[1].Entries[0].CounterDelta != 7 {
		t.Fatalf("post-failure report = %+v", reps[1])
	}
	if reps[1].Seq != 3 {
		t.Fatalf("post-failure seq = %d, want 3", reps[1].Seq)
	}
}

func TestReporterRunStop(t *testing.T) {
	reg := obs.NewRegistry(true)
	c := reg.Counter("x_total")
	now := time.Unix(1_700_000_000, 0)
	agg := newTestAggregator(&now, &obs.Tracer{})
	rep := NewReporter(NewEncoder(reg), func(p []byte) error {
		return agg.HandleReport(1, p)
	})
	c.Add(5)
	rep.Run(time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for agg.AgentSeq(1) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c.Add(5)
	rep.Stop()
	// Stop's final flush must have delivered everything.
	for _, s := range agg.Samples() {
		if s.Name == "x_total" && int64(s.Value) != 10 {
			t.Fatalf("x_total = %v, want 10", s.Value)
		}
	}
	if agg.AgentSeq(1) != rep.Seq() {
		t.Fatalf("aggregator seq %d != reporter seq %d", agg.AgentSeq(1), rep.Seq())
	}
}

var errSendFailed = errSend{}

type errSend struct{}

func (errSend) Error() string { return "send failed" }
