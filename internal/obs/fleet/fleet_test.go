package fleet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/southbound"
)

// exampleRegistry holds one series of each kind; its first report is
// goldenBaseline.
func exampleRegistry() (*obs.Registry, *obs.Counter, *obs.Gauge, *obs.Histogram) {
	reg := obs.NewRegistry(true)
	c := reg.Counter("reqs_total", "type", "hello")
	g := reg.Gauge("queue_depth")
	h := reg.Histogram("latency_s", []float64{0.1, 1})
	c.Add(5)
	g.Set(2.5)
	h.Observe(0.05)
	h.Observe(3)
	return reg, c, g, h
}

// The wire form, pinned: a report is the changed rows of /metrics.json.
const (
	goldenBaseline  = `{"seq":1,"series":[{"name":"reqs_total","kind":"counter","labels":{"type":"hello"},"value":5},{"name":"queue_depth","kind":"gauge","value":2.5},{"name":"latency_s","kind":"histogram","count":2,"sum":3.05,"bounds":[0.1,1],"buckets":[1,0,1]}]}`
	goldenHeartbeat = `{"seq":2,"series":[]}`
	goldenChange    = `{"seq":3,"series":[{"name":"reqs_total","kind":"counter","labels":{"type":"hello"},"value":8},{"name":"latency_s","kind":"histogram","count":3,"sum":3.55,"bounds":[0.1,1],"buckets":[1,1,1]}]}`
)

func decodeAll(t *testing.T, payloads ...[]byte) []*obs.Doc {
	t.Helper()
	var out []*obs.Doc
	for i, p := range payloads {
		doc, err := decode(p)
		if err != nil {
			t.Fatalf("decode report %d: %v", i, err)
		}
		out = append(out, doc)
	}
	return out
}

// rollupSamples is the aggregator's registry snapshot, sorted by series
// identity.
func rollupSamples(agg *Aggregator) []obs.Sample {
	out := obs.Snapshot(agg.Registry())
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// agentHealth is one agent's Metric* rows in the rollup.
type agentHealth struct {
	state                State
	reports, bytes, gaps uint64
	silence              float64
}

func health(agg *Aggregator, agent uint32) agentHealth {
	var h agentHealth
	for _, s := range obs.Snapshot(agg.Registry()) {
		if s.Labels["agent"] != strconv.FormatUint(uint64(agent), 10) {
			continue
		}
		switch s.Name {
		case MetricAgentState:
			h.state = State(s.Value)
		case MetricReports:
			h.reports = uint64(s.Value)
		case MetricReportBytes:
			h.bytes = uint64(s.Value)
		case MetricGaps:
			h.gaps = uint64(s.Value)
		case MetricAgentSilence:
			h.silence = s.Value
		}
	}
	return h
}

// agentRollup returns the rollup's series for one agent with the agent
// label stripped, keyed like the agent's own registry.
func agentRollup(agg *Aggregator, agent uint32) map[string]obs.Sample {
	out := map[string]obs.Sample{}
	for _, s := range rollupSamples(agg) {
		if s.Labels["agent"] != strconv.FormatUint(uint64(agent), 10) || strings.HasPrefix(s.Name, "tinyleo_fleet_") {
			continue
		}
		delete(s.Labels, "agent")
		if len(s.Labels) == 0 {
			s.Labels = nil
		}
		out[s.Key()] = s
	}
	return out
}

// registryRows keys a registry's snapshot the same way.
func registryRows(reg *obs.Registry) map[string]obs.Sample {
	out := map[string]obs.Sample{}
	for _, s := range obs.Snapshot(reg) {
		out[s.Key()] = s
	}
	return out
}

func TestEncoderBaselineAndDeltas(t *testing.T) {
	reg, c, _, h := exampleRegistry()
	enc := NewEncoder(reg)
	p1, seq1 := enc.Encode()
	// No changes: empty heartbeat report.
	p2, seq2 := enc.Encode()
	c.Add(3)
	h.Observe(0.5)
	p3, seq3 := enc.Encode()
	if seq1 != 1 || seq2 != 2 || seq3 != 3 {
		t.Fatalf("seqs = %d %d %d, want 1 2 3", seq1, seq2, seq3)
	}
	for i, want := range []string{goldenBaseline, goldenHeartbeat, goldenChange} {
		if got := string([][]byte{p1, p2, p3}[i]); got != want {
			t.Errorf("report %d:\n got %s\nwant %s", i+1, got, want)
		}
	}
	// The report is the /metrics.json document: the same rows, absolute.
	var full strings.Builder
	if err := obs.WriteJSON(&full, reg); err != nil {
		t.Fatal(err)
	}
	doc, err := obs.DecodeDoc([]byte(full.String()))
	if err != nil {
		t.Fatal(err)
	}
	rep := decodeAll(t, p3)[0]
	if !reflect.DeepEqual(rep.Series[0], doc.Series[0]) || !reflect.DeepEqual(rep.Series[1], doc.Series[2]) {
		t.Fatalf("report rows %+v are not rows of /metrics.json %+v", rep.Series, doc.Series)
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
	if rep.Seq != 2 || len(rep.Series) != 1 || rep.Series[0].Value != 9 {
		t.Fatalf("post-reset report = %+v", rep)
	}
}

func TestEncoderNewSeriesMidSession(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	agg := newTestAggregator(&now, &obs.Tracer{})
	reg := obs.NewRegistry(true)
	reg.Counter("a_total").Inc()
	enc := NewEncoder(reg)
	p1, _ := enc.Encode()
	reg.Counter("b_total", "k", "v").Add(4)
	p2, _ := enc.Encode()
	rep := decodeAll(t, p2)[0]
	if len(rep.Series) != 1 || rep.Series[0].Name != "b_total" || rep.Series[0].Value != 4 {
		t.Fatalf("mid-stream report = %+v, want only the new series", rep)
	}
	for _, p := range [][]byte{p1, p2} {
		if err := agg.HandleReport(1, p); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := agentRollup(agg, 1), registryRows(reg); !reflect.DeepEqual(got, want) {
		t.Fatalf("rollup %+v, registry %+v", got, want)
	}
	if n := len(agentRollup(agg, 1)); n != 2 {
		t.Fatalf("agent 1 has %d series of its own in the rollup, want 2", n)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	row := func(s string) string { return `{"seq":1,"series":[` + s + `]}` }
	many := func(n int, elem string) string { return strings.TrimSuffix(strings.Repeat(elem+",", n), ",") }
	cases := map[string]string{
		"empty":            ``,
		"not json":         "\x01\x00\x01\x00",
		"truncated":        goldenBaseline[:len(goldenBaseline)-1],
		"trailing":         goldenBaseline + "x",
		"no seq":           `{"series":[]}`,
		"wrong type":       `{"seq":"1","series":[]}`,
		"unknown kind":     row(`{"name":"x","kind":"summary","value":1}`),
		"no kind":          row(`{"name":"x","value":1}`),
		"negative counter": row(`{"name":"x","kind":"counter","value":-1}`),
		"fraction counter": row(`{"name":"x","kind":"counter","value":1.5}`),
		"huge counter":     row(`{"name":"x","kind":"counter","value":1e19}`),
		"infinite gauge":   row(`{"name":"x","kind":"gauge","value":1e999}`),
		"bucket count":     row(`{"name":"x","kind":"histogram","count":1,"bounds":[1],"buckets":[1]}`),
		"negative bucket":  row(`{"name":"x","kind":"histogram","count":1,"bounds":[1],"buckets":[2,-1]}`),
		"unsorted bounds":  row(`{"name":"x","kind":"histogram","bounds":[2,1],"buckets":[0,0,0]}`),
		"too many bounds":  row(`{"name":"x","kind":"histogram","bounds":[` + many(MaxBounds+1, "1") + `],"buckets":[` + many(MaxBounds+2, "0") + `]}`),
		"too many series":  row(many(MaxReportSeries+1, `{"name":"x","kind":"gauge"}`)),
		"long name":        row(`{"name":"` + strings.Repeat("n", MaxStringLen+1) + `","kind":"gauge"}`),
		"long label":       row(`{"name":"x","kind":"gauge","labels":{"k":"` + strings.Repeat("v", MaxStringLen+1) + `"}}`),
		"too many labels":  row(`{"name":"x","kind":"gauge","labels":{` + labelPairs(MaxLabels+1) + `}}`),
		"over the budget":  `{"seq":1,"series":[]` + strings.Repeat(" ", MaxReportBytes) + `}`,
	}
	for name, buf := range cases {
		if _, err := decode([]byte(buf)); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: decode error = %v, want ErrMalformed", name, err)
		}
	}
	// Every limit is inclusive.
	ok := row(`{"name":"` + strings.Repeat("n", MaxStringLen) + `","kind":"gauge","labels":{` + labelPairs(MaxLabels) + `}}`)
	if _, err := decode([]byte(ok)); err != nil {
		t.Errorf("report at the limits rejected: %v", err)
	}
}

func labelPairs(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `"k%d":"v"`, i)
	}
	return b.String()
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
	agents[1].h.Observe(0.0625)
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

	for id, a := range agents {
		if got, want := agentRollup(agg, id), registryRows(a.reg); !reflect.DeepEqual(got, want) {
			t.Fatalf("agent %d: rollup %+v, registry %+v", id, got, want)
		}
	}
	totalPkts := func() int64 {
		for _, s := range Totals(obs.Snapshot(agg.Registry())) {
			if s.Name == "pkts_total" {
				if s.Labels["agent"] != "" {
					t.Fatalf("totals kept agent label: %v", s.Labels)
				}
				return int64(s.Value)
			}
		}
		return -1
	}
	if got := totalPkts(); got != 61 {
		t.Fatalf("totals pkts_total = %v, want 61", got)
	}
	for _, s := range Totals(obs.Snapshot(agg.Registry())) {
		if s.Name == "lat_s" && (s.Count != 4 || s.Buckets[1] != 2) {
			t.Fatalf("totals lat_s = %+v", s)
		}
	}

	// The same equality with everything live: each agent streams over a real
	// southbound session from a Reporter ticker while its counter is being
	// incremented, until five ticker reports have landed; once the final
	// flush lands too, the fleet total is the sum of the agents' own counters.
	ctl, err := southbound.ListenController("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	ctl.OnTelemetry = func(sat uint32, payload []byte) {
		if err := agg.HandleReport(sat, payload); err != nil {
			t.Errorf("telemetry from agent %d: %v", sat, err)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	var reporters []*Reporter
	var wg sync.WaitGroup
	for id, a := range agents {
		conn, err := southbound.DialAgent(ctl.Addr(), id, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		rep := NewReporter(a.enc, conn.SendTelemetry)
		rep.Run(time.Millisecond)
		reporters = append(reporters, rep)
		wg.Add(1)
		go func(id uint32, c *obs.Counter, until uint64) {
			defer wg.Done()
			for agg.AgentSeq(id) < until {
				c.Inc()
				if time.Now().After(deadline) {
					t.Errorf("agent %d: reports stopped landing at seq %d", id, agg.AgentSeq(id))
					return
				}
				runtime.Gosched()
			}
		}(id, a.c, a.enc.Seq()+5)
	}
	wg.Wait()
	for _, rep := range reporters {
		rep.Stop()
	}
	want := int64(0)
	for _, a := range agents {
		want += a.c.Value()
	}
	if want <= 61 {
		t.Fatalf("no agent incremented during the live phase (sum %d)", want)
	}
	for totalPkts() != want {
		if time.Now().After(deadline) {
			t.Fatalf("totals pkts_total = %d never reached the agents' own sum %d", totalPkts(), want)
		}
		time.Sleep(time.Millisecond)
	}
	for id, a := range agents {
		if got, want := agentRollup(agg, id), registryRows(a.reg); !reflect.DeepEqual(got, want) {
			t.Fatalf("agent %d after the live phase: rollup %+v, registry %+v", id, got, want)
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
	// Send failure: the encoder forgets what it sent and re-ships it all.
	c.Add(2)
	h.Observe(2)
	enc.Reset()
	p, _ = enc.Encode()
	if err := agg.HandleReport(7, p); err != nil {
		t.Fatal(err)
	}
	if got, want := agentRollup(agg, 7), registryRows(reg); !reflect.DeepEqual(got, want) {
		t.Fatalf("rollup %+v, registry %+v (x_total 7, h_s count 2: no double count)", got, want)
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
			transitions = append(transitions, from.String()+">"+to.String())
		},
	})
	reg := obs.NewRegistry(true)
	reg.Counter("x_total").Inc()
	enc := NewEncoder(reg)
	p, _ := enc.Encode()
	if err := agg.HandleReport(4, p); err != nil {
		t.Fatal(err)
	}

	states := func() State { return health(agg, 4).state }
	agg.Tick()
	if s := states(); s != StateHealthy {
		t.Fatalf("state = %s, want healthy", s)
	}
	now = now.Add(4 * time.Second)
	agg.Tick()
	if h := health(agg, 4); h.state != StateLagging || h.silence != 4 {
		t.Fatalf("after 4s: state %s, silence %vs; want lagging, 4s", h.state, h.silence)
	}
	now = now.Add(6 * time.Second)
	agg.Tick()
	if s := states(); s != StateSilent {
		t.Fatalf("state after 10s = %s, want silent", s)
	}
	// A fresh report — a heartbeat, nothing changed — recovers the agent on
	// the next tick.
	p, _ = enc.Encode()
	if err := agg.HandleReport(4, p); err != nil {
		t.Fatal(err)
	}
	agg.Tick()
	if s := states(); s != StateHealthy {
		t.Fatalf("state after report = %s, want healthy", s)
	}

	want := []string{"healthy>lagging", "lagging>silent", "silent>healthy"}
	if !reflect.DeepEqual(transitions, want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	var types []string
	for _, ev := range log.Events() {
		if typ, ok := strings.CutPrefix(ev.Name, "fleet."); ok {
			types = append(types, typ)
		}
	}
	if wantEv := []string{"agent_lagging", "agent_silent", "agent_recovered"}; !reflect.DeepEqual(types, wantEv) {
		t.Fatalf("events = %v, want %v", types, wantEv)
	}
}

// A report that reached send but never HandleReport costs one gap and
// nothing else that the agent touches again: the next row of a series is
// its absolute value, whatever was lost before it. A series only the lost
// report carried stays behind until its next change.
func TestAggregatorSeqGapsAndStaleDrops(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	agg := newTestAggregator(&now, &obs.Tracer{})
	reg := obs.NewRegistry(true)
	a, b := reg.Counter("a_total"), reg.Counter("b_total")
	h := reg.Histogram("h_s", []float64{1})
	enc := NewEncoder(reg)
	deliver := func(p []byte) {
		t.Helper()
		if err := agg.HandleReport(9, p); err != nil {
			t.Fatal(err)
		}
	}

	a.Inc()
	b.Inc()
	p1, _ := enc.Encode()
	a.Add(2)
	b.Add(3)
	h.Observe(0.5)
	enc.Encode() // report k: sent, lost in transit
	a.Inc()
	h.Observe(2)
	reg.Counter("c_total").Add(4)
	p3, _ := enc.Encode() // report k+1

	deliver(p1)
	deliver(p3)
	if h := health(agg, 9); h.gaps != 1 || agg.AgentSeq(9) != 3 || h.reports != 2 {
		t.Fatalf("gaps=%d lastSeq=%d reports=%d, want 1/3/2", h.gaps, agg.AgentSeq(9), h.reports)
	}
	got, want := agentRollup(agg, 9), registryRows(reg)
	for _, key := range []string{"a_total", "h_s", "c_total"} {
		if !reflect.DeepEqual(got[key], want[key]) {
			t.Fatalf("%s touched by report k+1: rollup %+v, registry %+v", key, got[key], want[key])
		}
	}
	if got["b_total"].Value != 1 {
		t.Fatalf("b_total = %v, want 1 (only the lost report carried its change)", got["b_total"].Value)
	}
	// A duplicate delivery folds to nothing and is not a second report.
	deliver(p3)
	if h := health(agg, 9); h.reports != 2 || h.bytes != uint64(len(p1)+len(p3)) || h.gaps != 1 {
		t.Fatalf("after duplicate: %+v", h)
	}
	b.Inc()
	p4, _ := enc.Encode()
	deliver(p4)
	if got, want := agentRollup(agg, 9), registryRows(reg); !reflect.DeepEqual(got, want) {
		t.Fatalf("after b_total's next change: rollup %+v, registry %+v", got, want)
	}
}

// A restarted agent counts from zero again: its rows go backwards, and
// each contributes its full new value on top of what the old process
// reported.
func TestAggregatorAgentRestartKeepsOldCounts(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	agg := newTestAggregator(&now, &obs.Tracer{})
	flush := func(enc *Encoder) {
		t.Helper()
		p, _ := enc.Encode()
		if err := agg.HandleReport(3, p); err != nil {
			t.Fatal(err)
		}
	}
	old := obs.NewRegistry(true)
	old.Counter("x_total").Add(10)
	oh := old.Histogram("h_s", []float64{1})
	oh.Observe(0.5)
	oh.Observe(0.5)
	oh.Observe(2)
	flush(NewEncoder(old))

	reg := obs.NewRegistry(true) // the new process: seq and counters restart
	c, h := reg.Counter("x_total"), reg.Histogram("h_s", []float64{1})
	enc := NewEncoder(reg)
	c.Add(2)
	h.Observe(2)
	flush(enc)
	c.Add(3)
	h.Observe(0.5)
	flush(enc)

	got := agentRollup(agg, 3)
	if v := got["x_total"].Value; v != 15 {
		t.Fatalf("x_total = %v, want 15 (10 from the old process + 5 from the new)", v)
	}
	if hs := got["h_s"]; hs.Count != 5 || hs.Sum != 5.5 || !reflect.DeepEqual(hs.Buckets, []int64{3, 2}) {
		t.Fatalf("h_s = %+v, want count 5 sum 5.5 buckets [3 2]", hs)
	}
	if h := health(agg, 3); h.gaps != 0 || agg.AgentSeq(3) != 2 {
		t.Fatalf("restart counted as loss: %+v, seq %d", h, agg.AgentSeq(3))
	}
}

// TestAggregatorMatchesMapModel drives one agent through seeded
// increments, encoder resets, process restarts and reports that are lost,
// duplicated or corrupted, and checks the rollup after every step against
// a plain map folding the delivered rows by the stated rule: row − last,
// or the whole row when it went backwards.
func TestAggregatorMatchesMapModel(t *testing.T) {
	names := []string{"a_total", "b_total", "c_total", "d_total"}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now := time.Unix(1_700_000_000, 0)
		agg := newTestAggregator(&now, &obs.Tracer{})
		var reg *obs.Registry
		var enc *Encoder
		restart := func() { reg = obs.NewRegistry(true); enc = NewEncoder(reg) }
		restart()
		model, last := map[string]float64{}, map[string]float64{}
		var lastSeq, gaps, reports uint64
		var decodeErrs int64
		for step := 0; step < 300; step++ {
			switch rng.Intn(10) {
			case 0:
				restart()
			case 1:
				enc.Reset()
			case 2:
				bad := []string{"", "{", `{"seq":0}`, `{"seq":9,"series":[{"name":"a_total","kind":"counter","value":-4}]}`}
				if err := agg.HandleReport(1, []byte(bad[rng.Intn(len(bad))])); err == nil {
					t.Fatalf("seed %d step %d: malformed report accepted", seed, step)
				}
				decodeErrs++
			default:
				reg.Counter(names[rng.Intn(len(names))]).Add(int64(1 + rng.Intn(5)))
			}
			if rng.Intn(3) == 0 {
				p, seq := enc.Encode()
				for n := rng.Intn(3); n > 0; n-- { // lost, delivered, delivered twice
					if err := agg.HandleReport(1, p); err != nil {
						t.Fatalf("seed %d step %d: %v", seed, step, err)
					}
					if seq != lastSeq {
						if lastSeq != 0 && seq > lastSeq+1 {
							gaps += seq - lastSeq - 1
						}
						lastSeq = seq
						reports++
					}
					for _, s := range decodeAll(t, p)[0].Series {
						if s.Value < last[s.Name] {
							last[s.Name] = 0
						}
						model[s.Name] += s.Value - last[s.Name]
						last[s.Name] = s.Value
					}
				}
			}
			got := map[string]float64{}
			for k, s := range agentRollup(agg, 1) {
				got[k] = s.Value
			}
			if !reflect.DeepEqual(got, model) {
				t.Fatalf("seed %d step %d: rollup %v, model %v", seed, step, got, model)
			}
			if sum, h := Summarize(rollupSamples(agg)), health(agg, 1); sum.DecodeErrors != decodeErrs ||
				h.gaps != gaps || h.reports != reports || agg.AgentSeq(1) != lastSeq {
				t.Fatalf("seed %d step %d: %+v, seq %d, decode errors %d; want gaps %d reports %d seq %d decode errors %d",
					seed, step, h, agg.AgentSeq(1), sum.DecodeErrors, gaps, reports, lastSeq, decodeErrs)
			}
		}
	}
}

// A registry too large for one report is shipped over several, none above
// the budget, and converges; nothing wedges.
func TestLargeRegistryShipsInBudgetedReports(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	agg := newTestAggregator(&now, &obs.Tracer{})
	reg := obs.NewRegistry(true)
	for i := 0; i < 5000; i++ {
		reg.Counter("tinyleo_dataplane_forwarded_packets_total", "cell", strconv.Itoa(i), "direction", "ascending").Add(int64(i + 1))
	}
	enc := NewEncoder(reg)
	reports := 0
	for {
		p, _ := enc.Encode()
		if len(p) > MaxReportBytes {
			t.Fatalf("report %d is %d bytes, budget %d", reports+1, len(p), MaxReportBytes)
		}
		if err := agg.HandleReport(1, p); err != nil {
			t.Fatal(err)
		}
		if len(decodeAll(t, p)[0].Series) == 0 {
			break
		}
		if reports++; reports > 20 {
			t.Fatal("encoder never drained the registry")
		}
	}
	if reports < 3 {
		t.Fatalf("5,000 series went in %d reports; want several", reports)
	}
	if got, want := agentRollup(agg, 1), registryRows(reg); !reflect.DeepEqual(got, want) {
		t.Fatalf("rollup has %d series, registry %d, or values differ", len(got), len(want))
	}
}

// A series with no JSON form (NaN gauge, ±Inf histogram sum) costs only
// itself: the rest of the report ships, and the series follows once it is
// finite.
func TestNonFiniteSeriesCostsOnlyItself(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	agg := newTestAggregator(&now, &obs.Tracer{})
	reg := obs.NewRegistry(true)
	reg.Counter("ok_total").Add(3)
	g := reg.Gauge("ratio")
	g.Set(math.NaN())
	reg.Histogram("h_s", []float64{1}).Observe(math.Inf(1))
	reg.Gauge("depth").Set(7)
	enc := NewEncoder(reg)
	p, _ := enc.Encode()
	if err := agg.HandleReport(1, p); err != nil {
		t.Fatalf("report with a NaN gauge beside it: %v", err)
	}
	got := agentRollup(agg, 1)
	if len(got) != 2 || got["ok_total"].Value != 3 || got["depth"].Value != 7 {
		t.Fatalf("rollup = %+v, want ok_total 3 and depth 7 only", got)
	}
	g.Set(0.5)
	p, _ = enc.Encode()
	if err := agg.HandleReport(1, p); err != nil {
		t.Fatal(err)
	}
	if rep := decodeAll(t, p)[0]; len(rep.Series) != 1 || rep.Series[0].Name != "ratio" {
		t.Fatalf("second report = %+v, want only the now-finite gauge", rep)
	}
	if v := agentRollup(agg, 1)["ratio"].Value; v != 0.5 {
		t.Fatalf("ratio = %v, want 0.5", v)
	}
}

func TestAggregatorMalformedCountsDecodeError(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	agg := newTestAggregator(&now, &obs.Tracer{})
	if err := agg.HandleReport(1, []byte(goldenBaseline)); err != nil {
		t.Fatal(err)
	}
	before := rollupSamples(agg)
	// The first row is fine, the second is not: the report is dropped whole.
	bad := `{"seq":2,"series":[{"name":"reqs_total","kind":"counter","labels":{"type":"hello"},"value":50},{"name":"latency_s","kind":"histogram","count":9,"bounds":[0.1,1],"buckets":[9]}]}`
	for _, p := range []string{"\x63", bad} {
		if err := agg.HandleReport(1, []byte(p)); !errors.Is(err, ErrMalformed) {
			t.Fatalf("HandleReport(%q) = %v, want ErrMalformed", p, err)
		}
	}
	if sum := Summarize(rollupSamples(agg)); sum.DecodeErrors != 2 || sum.Reports != 1 || agg.AgentSeq(1) != 1 {
		t.Fatalf("summary %+v, seq %d; want 2 decode errors and one report", sum, agg.AgentSeq(1))
	}
	after := rollupSamples(agg)
	for i := range after {
		if after[i].Name == "tinyleo_fleet_decode_errors_total" {
			after[i].Value = 0
		}
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("a rejected report changed the rollup:\nbefore %+v\nafter  %+v", before, after)
	}
}

// Agent health is served with everything else on /metrics.json: the
// document reads back into the summary and the fleet totals.
func TestAgentHealthOnMetricsJSON(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	agg := newTestAggregator(&now, &obs.Tracer{})
	reg := obs.NewRegistry(true)
	reg.Counter("x_total").Add(3)
	enc := NewEncoder(reg)
	p, _ := enc.Encode()
	if err := agg.HandleReport(2, p); err != nil {
		t.Fatal(err)
	}
	now = now.Add(1500 * time.Millisecond)
	agg.Tick()

	rec := httptest.NewRecorder()
	obs.NewHandler(agg.Registry()).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics.json", nil))
	doc, err := obs.DecodeDoc(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("decode /metrics.json: %v", err)
	}
	want := map[string]float64{
		MetricAgentState: 0, MetricAgentSilence: 1.5, MetricReports: 1, MetricReportBytes: float64(len(p)), MetricGaps: 0,
	}
	for _, s := range doc.Series {
		if v, ok := want[s.Name]; ok && s.Labels["agent"] == "2" {
			if s.Value != v {
				t.Errorf("%s{agent=2} = %v, want %v", s.Name, s.Value, v)
			}
			delete(want, s.Name)
		}
	}
	if len(want) != 0 {
		t.Fatalf("/metrics.json lacks agent 2's %v", want)
	}
	if sum := Summarize(doc.Series); sum.Agents != 1 || sum.States["healthy"] != 1 || sum.Reports != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	found := false
	for _, s := range Totals(doc.Series) {
		if s.Name == MetricAgentState || s.Name == MetricAgentSilence {
			t.Errorf("totals sum the per-agent %s", s.Name)
		}
		if s.Name == "x_total" && int64(s.Value) == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("totals missing x_total=3: %+v", doc.Series)
	}
}

// The summary is one derivation from the rollup's Metric* rows, and each
// of its counts is the fleet-wide total of the series it comes from, so a
// plan scores the same names a live rollup exports.
func TestSummarize(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	agg := newTestAggregator(&now, &obs.Tracer{})
	for _, id := range []uint32{5, 2, 8} {
		if err := agg.HandleReport(id, []byte(goldenBaseline)); err != nil {
			t.Fatal(err)
		}
	}
	_ = agg.HandleReport(2, []byte(`{"seq":4,"series":[]}`)) // seq 2 and 3 lost
	_ = agg.HandleReport(2, []byte("junk"))
	now = now.Add(10 * time.Second)
	_ = agg.HandleReport(5, []byte(goldenHeartbeat))
	agg.Tick()
	samples := rollupSamples(agg)
	got := Summarize(samples)
	want := Summary{
		Agents: 3, Reports: 5, Bytes: uint64(3*len(goldenBaseline) + 2*len(goldenHeartbeat)), Gaps: 2,
		States: map[string]int{"healthy": 1, "silent": 2}, Silent: []int{2, 8}, DecodeErrors: 1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("summary = %+v, want %+v", got, want)
	}
	totals := map[string]float64{}
	for _, s := range Totals(samples) {
		totals[s.Name] = s.Value
	}
	for name, v := range map[string]float64{
		MetricAgents: float64(got.Agents), MetricAgentsSilent: float64(len(got.Silent)), MetricReports: float64(got.Reports),
		MetricReportBytes: float64(got.Bytes), MetricGaps: float64(got.Gaps), MetricDecodeErrors: float64(got.DecodeErrors),
	} {
		if tv, ok := totals[name]; !ok || tv != v {
			t.Errorf("totals %s = %v (%v), summary says %v", name, tv, ok, v)
		}
	}
	if empty := Summarize(nil); empty.Agents != 0 || empty.States == nil {
		t.Errorf("empty summary = %+v, want no agents and an empty state map", empty)
	}
}

// The tinyleo_fleet_ namespace is the aggregator's: an agent series named
// like one of its per-agent rows would otherwise fold into that very
// instrument. It is skipped; the agent's other series fold as usual.
func TestAgentSeriesInTheFleetNamespaceAreNotFolded(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	agg := newTestAggregator(&now, &obs.Tracer{})
	reg := obs.NewRegistry(true)
	reg.Counter(MetricReports).Add(1000)
	reg.Gauge(MetricAgentState).Set(2)
	reg.Counter("x_total").Add(3)
	p, _ := NewEncoder(reg).Encode()
	if err := agg.HandleReport(6, p); err != nil {
		t.Fatal(err)
	}
	agg.Tick()
	if h := health(agg, 6); h.reports != 1 || h.state != StateHealthy {
		t.Fatalf("agent rows %+v, want one report and healthy", h)
	}
	if got := agentRollup(agg, 6); len(got) != 1 || got["x_total"].Value != 3 {
		t.Fatalf("agent's own series = %+v, want x_total 3 alone", got)
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
	if _, err := rep.Flush(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(sent) != 2 {
		t.Fatalf("sent %d reports, want 2", len(sent))
	}
	reps := decodeAll(t, sent...)
	if reps[0].Seq != 1 || reps[0].Series[0].Value != 4 {
		t.Fatalf("first report = %+v", reps[0])
	}
	// After the failed send the encoder reset: the next delivered report
	// carries the series again though it did not move since — nothing lost.
	if reps[1].Seq != 3 || len(reps[1].Series) != 1 || reps[1].Series[0].Value != 6 {
		t.Fatalf("post-failure report = %+v, want seq 3 with x_total 6", reps[1])
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
	if v := agentRollup(agg, 1)["x_total"].Value; v != 10 {
		t.Fatalf("x_total = %v, want 10", v)
	}
	if agg.AgentSeq(1) != rep.Seq() {
		t.Fatalf("aggregator seq %d != reporter seq %d", agg.AgentSeq(1), rep.Seq())
	}
}

var errSendFailed = errSend{}

type errSend struct{}

func (errSend) Error() string { return "send failed" }

// FuzzHandleReport feeds arbitrary bytes to an aggregator that already
// holds one agent's baseline. It may reject them, but must not panic; a
// rejected report changes nothing but the decode-error count; and an
// accepted one, re-encoded by the shared encoder and fed to a second
// aggregator, gives the same rollup. (A report declares no lengths — it is
// JSON — so no allocation can outrun the MaxReportBytes the input is
// held to.)
func FuzzHandleReport(f *testing.F) {
	for _, p := range []string{goldenBaseline, goldenHeartbeat, goldenChange,
		`{"seq":1,"series":[{"name":"reqs_total","kind":"counter","labels":{"type":"hello"},"value":2}]}`,
		`{"seq":7,"series":[{"name":"latency_s","kind":"histogram","count":1,"sum":9,"bounds":[5],"buckets":[0,1]}]}`,
		`{"seq":2,"series":[{"name":"queue_depth","kind":"counter","labels":{"agent":"x"},"value":1}]}`,
		`{"seq":2,"series":[{"name":"x","kind":"histogram","bounds":[2,1],"buckets":[0,0,0]}]}`,
		"", "{", `{"seq":0}`,
	} {
		f.Add([]byte(p))
	}
	rollup := func(agg *Aggregator) []obs.Sample {
		var out []obs.Sample
		for _, s := range rollupSamples(agg) {
			// Byte counts differ between a report and its re-encoding.
			if s.Name != "tinyleo_fleet_report_bytes_total" && s.Name != "tinyleo_fleet_decode_errors_total" {
				out = append(out, s)
			}
		}
		return out
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		now := time.Unix(1_700_000_000, 0)
		a, b := newTestAggregator(&now, &obs.Tracer{}), newTestAggregator(&now, &obs.Tracer{})
		for _, agg := range []*Aggregator{a, b} {
			if err := agg.HandleReport(1, []byte(goldenBaseline)); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.HandleReport(1, raw); err != nil {
			if !errors.Is(err, ErrMalformed) || Summarize(rollupSamples(a)).DecodeErrors != 1 {
				t.Fatalf("rejection %v did not count one ErrMalformed", err)
			}
			if !reflect.DeepEqual(rollup(a), rollup(b)) {
				t.Fatalf("rejected report %q changed the rollup", raw)
			}
			return
		}
		doc, err := obs.DecodeDoc(raw)
		if err != nil {
			t.Fatalf("accepted report does not decode: %v", err)
		}
		again, rows := obs.EncodeDoc(doc.Seq, doc.Series, 0)
		if len(rows) != len(doc.Series) {
			t.Fatalf("re-encoding kept %d of %d rows", len(rows), len(doc.Series))
		}
		if err := b.HandleReport(1, again); err != nil {
			t.Fatalf("re-encoded report %q rejected: %v", again, err)
		}
		if !reflect.DeepEqual(rollup(a), rollup(b)) {
			t.Fatalf("report %q and its re-encoding %q gave different rollups", raw, again)
		}
	})
}
