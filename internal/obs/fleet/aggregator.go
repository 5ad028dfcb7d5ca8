package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flightrec"
)

// State is an agent's report-staleness health state.
type State string

// Staleness states, ordered healthy → lagging → silent.
const (
	StateHealthy State = "healthy"
	StateLagging State = "lagging"
	StateSilent  State = "silent"
)

// Default staleness thresholds (interactive use; chaos campaigns inject
// virtual-clock-scaled values).
const (
	DefaultLagAfter    = 3 * time.Second
	DefaultSilentAfter = 10 * time.Second
)

// Options parameterizes an Aggregator.
type Options struct {
	// Clock supplies "now" for staleness tracking (default time.Now). Chaos
	// campaigns pass the virtual clock so health transitions are
	// byte-reproducible.
	Clock func() time.Time
	// LagAfter is the silence duration after which an agent is lagging
	// (default DefaultLagAfter).
	LagAfter time.Duration
	// SilentAfter is the silence duration after which an agent is silent
	// (default DefaultSilentAfter).
	SilentAfter time.Duration
	// Tracer receives the fleet.agent_lagging/agent_silent/agent_recovered
	// events (default: the process tracer, obs.Trace()).
	Tracer *obs.Tracer
	// OnTransition, when set, is called (from Tick, in agent-ID order)
	// for every state change.
	OnTransition func(agent uint32, from, to State)
}

// instrument is a resolved handle into the rollup registry.
type instrument struct {
	kind obs.Kind
	c    *obs.Counter
	g    *obs.Gauge
	h    *obs.Histogram
}

// seriesState is one agent series' persistent aggregation state: the
// resolved rollup instrument plus the accumulated agent-absolute values.
// It outlives encoder sessions — a baseline re-ship after a reconnect is
// applied as (absolute - accumulated), so nothing double counts.
type seriesState struct {
	desc    Desc
	inst    instrument
	counter int64
	histCnt int64
	histSum float64
	histBkt []int64
}

// agentState is everything the aggregator tracks per reporting agent.
type agentState struct {
	id uint32
	// dict maps session series IDs to series state; reset on baselines.
	dict []*seriesState
	// series is the persistent per-series state, keyed by canonical
	// series identity (name + sorted labels).
	series map[string]*seriesState

	state      State
	lastReport time.Time
	lastSeq    uint64
	reports    uint64
	bytes      uint64
	gaps       uint64

	reportsC *obs.Counter
	bytesC   *obs.Counter
}

// descKey is the canonical identity of a described series.
func descKey(d *Desc) string {
	key := d.Name
	for _, s := range d.Labels {
		key += "\x00" + s
	}
	return key
}

// Aggregator merges per-agent fleet reports into one always-enabled
// rollup registry (every series relabeled with agent=<id>) and tracks
// per-agent report staleness. HandleReport is called from southbound
// connection goroutines; Tick from a single clock goroutine — all state
// transitions happen in Tick, in agent-ID order, so campaigns driving a
// virtual clock get deterministic event sequences.
type Aggregator struct {
	clock        func() time.Time
	lagAfter     time.Duration
	silentAfter  time.Duration
	tracer       *obs.Tracer
	onTransition func(uint32, State, State)

	rollup *obs.Registry

	mu sync.Mutex
	//tinyleo:guardedby mu
	agents map[uint32]*agentState
	//tinyleo:guardedby mu
	kinds map[string]obs.Kind // rollup name → kind, guards kind clashes
	// decodeErrs counts reports dropped as malformed.
	decodeErrs *obs.Counter
	agentsG    *obs.Gauge
	silentG    *obs.Gauge
}

// NewAggregator creates an aggregator with the given options.
func NewAggregator(o Options) *Aggregator {
	if o.Clock == nil {
		o.Clock = time.Now
	}
	if o.LagAfter <= 0 {
		o.LagAfter = DefaultLagAfter
	}
	if o.SilentAfter <= o.LagAfter {
		o.SilentAfter = DefaultSilentAfter
		if o.SilentAfter <= o.LagAfter {
			o.SilentAfter = 3 * o.LagAfter
		}
	}
	if o.Tracer == nil {
		o.Tracer = obs.Trace()
	}
	a := &Aggregator{
		clock:        o.Clock,
		lagAfter:     o.LagAfter,
		silentAfter:  o.SilentAfter,
		tracer:       o.Tracer,
		onTransition: o.OnTransition,
		rollup:       obs.NewRegistry(true),
		agents:       map[uint32]*agentState{},
		kinds:        map[string]obs.Kind{},
	}
	a.decodeErrs = a.rollup.Counter("tinyleo_fleet_decode_errors_total")
	a.agentsG = a.rollup.Gauge("tinyleo_fleet_agents")
	a.silentG = a.rollup.Gauge("tinyleo_fleet_agents_silent")
	a.kinds["tinyleo_fleet_decode_errors_total"] = obs.KindCounter
	a.kinds["tinyleo_fleet_agents"] = obs.KindGauge
	a.kinds["tinyleo_fleet_agents_silent"] = obs.KindGauge
	a.kinds["tinyleo_fleet_reports_total"] = obs.KindCounter
	a.kinds["tinyleo_fleet_report_bytes_total"] = obs.KindCounter
	return a
}

// Registry returns the rollup registry (always enabled), for merging into
// the controller's telemetry surface and SLO engine.
func (a *Aggregator) Registry() *obs.Registry { return a.rollup }

// resolveLocked returns the rollup instrument for desc under agent id,
// or an empty instrument when the descriptor clashes with an existing
// series kind (the report entry is then skipped, not fatal). Callers
// hold a.mu.
func (a *Aggregator) resolveLocked(id uint32, d Desc) instrument {
	if k, ok := a.kinds[d.Name]; ok && k != d.Kind {
		return instrument{}
	}
	a.kinds[d.Name] = d.Kind
	kvs := make([]string, 0, len(d.Labels)+2)
	kvs = append(kvs, d.Labels...)
	kvs = append(kvs, "agent", strconv.FormatUint(uint64(id), 10))
	in := instrument{kind: d.Kind}
	switch d.Kind {
	case obs.KindCounter:
		in.c = a.rollup.Counter(d.Name, kvs...)
	case obs.KindGauge:
		in.g = a.rollup.Gauge(d.Name, kvs...)
	case obs.KindHistogram:
		in.h = a.rollup.Histogram(d.Name, d.Bounds, kvs...)
	}
	return in
}

// HandleReport decodes and merges one agent report. It is the
// (*southbound.Controller).OnTelemetry callback. Malformed reports are
// counted and dropped; the error return is for tests and logs.
func (a *Aggregator) HandleReport(agent uint32, payload []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.agents[agent]
	if st == nil {
		agl := strconv.FormatUint(uint64(agent), 10)
		st = &agentState{
			id:       agent,
			state:    StateHealthy,
			series:   map[string]*seriesState{},
			reportsC: a.rollup.Counter("tinyleo_fleet_reports_total", "agent", agl),
			bytesC:   a.rollup.Counter("tinyleo_fleet_report_bytes_total", "agent", agl),
		}
		a.agents[agent] = st
	}
	dict := make([]Desc, len(st.dict))
	for i, ss := range st.dict {
		dict[i] = ss.desc
	}
	rep, err := Decode(payload, dict)
	if err != nil {
		a.decodeErrs.Inc()
		return fmt.Errorf("fleet: agent %d report: %w", agent, err)
	}
	if rep.Baseline {
		// Session restart: fresh session dictionary. Per-series state in
		// st.series persists, so re-shipped absolutes rebase instead of
		// double counting.
		st.dict = nil
	} else if rep.Seq <= st.lastSeq {
		// Stale or duplicate delivery: deltas were already applied.
		st.lastReport = a.clock()
		return nil
	}
	if st.lastSeq != 0 && rep.Seq > st.lastSeq+1 {
		st.gaps += rep.Seq - st.lastSeq - 1
	}
	st.lastSeq = rep.Seq
	st.lastReport = a.clock()
	st.reports++
	st.bytes += uint64(len(payload))
	st.reportsC.Inc()
	st.bytesC.Add(int64(len(payload)))

	// Grow the session dictionary with this report's new descriptors (IDs
	// are dense and ordered by Decode's contract), binding each to its
	// persistent series state.
	for id := len(st.dict); ; id++ {
		d, ok := rep.NewDescs[id]
		if !ok {
			break
		}
		key := descKey(&d)
		ss := st.series[key]
		if ss == nil {
			ss = &seriesState{
				desc:    d,
				inst:    a.resolveLocked(agent, d),
				histBkt: make([]int64, len(d.Bounds)+1),
			}
			st.series[key] = ss
		}
		st.dict = append(st.dict, ss)
	}
	for _, e := range rep.Entries {
		if e.ID < 0 || e.ID >= len(st.dict) {
			continue
		}
		ss := st.dict[e.ID]
		switch ss.inst.kind {
		case obs.KindCounter:
			d := e.CounterDelta
			if rep.Baseline {
				// Baseline carries absolutes; apply only what we have not
				// already merged (an agent restart, absolute < accumulated,
				// contributes nothing — rollup counters are monotonic).
				d = e.CounterDelta - ss.counter
				ss.counter = e.CounterDelta
				if d < 0 {
					continue
				}
			} else {
				ss.counter += d
			}
			ss.inst.c.Add(d)
		case obs.KindGauge:
			ss.inst.g.Set(e.GaugeValue)
		case obs.KindHistogram:
			dc, ds, db := e.CountDelta, e.SumDelta, e.BucketDeltas
			if rep.Baseline {
				dc -= ss.histCnt
				ds -= ss.histSum
				if dc < 0 || len(db) != len(ss.histBkt) {
					ss.histCnt, ss.histSum = e.CountDelta, e.SumDelta
					copy(ss.histBkt, db)
					continue
				}
				rebased := make([]int64, len(db))
				for i := range db {
					rebased[i] = db[i] - ss.histBkt[i]
				}
				ss.histCnt, ss.histSum = e.CountDelta, e.SumDelta
				copy(ss.histBkt, e.BucketDeltas)
				db = rebased
			} else {
				ss.histCnt += dc
				ss.histSum += ds
				for i := range db {
					if i < len(ss.histBkt) {
						ss.histBkt[i] += db[i]
					}
				}
			}
			if ss.inst.h != nil {
				ss.inst.h.Merge(dc, ds, db)
			}
		}
	}
	return nil
}

// stateFor maps a silence duration to a health state.
func (a *Aggregator) stateFor(silence time.Duration) State {
	switch {
	case silence >= a.silentAfter:
		return StateSilent
	case silence >= a.lagAfter:
		return StateLagging
	default:
		return StateHealthy
	}
}

// Tick advances staleness tracking to the current clock reading: every
// agent's state is recomputed from its last report age, transitions fire
// flight events and the OnTransition hook in agent-ID order, and the
// fleet gauges refresh. Call it from exactly one goroutine (a ticker, or
// the chaos engine loop).
func (a *Aggregator) Tick() {
	now := a.clock()
	type transition struct {
		id       uint32
		from, to State
	}
	var trans []transition
	a.mu.Lock()
	ids := make([]uint32, 0, len(a.agents))
	for id := range a.agents {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	silent := 0
	for _, id := range ids {
		st := a.agents[id]
		next := a.stateFor(now.Sub(st.lastReport))
		if next != st.state {
			trans = append(trans, transition{id: id, from: st.state, to: next})
			st.state = next
		}
		if st.state == StateSilent {
			silent++
		}
	}
	a.agentsG.Set(float64(len(ids)))
	a.silentG.Set(float64(silent))
	a.mu.Unlock()
	for _, t := range trans {
		typ := "agent_" + string(t.to)
		if t.to == StateHealthy {
			typ = "agent_recovered"
		}
		if a.tracer.Enabled() {
			a.tracer.Emit(flightrec.EventName(flightrec.CompFleet, typ),
				"agent", strconv.FormatUint(uint64(t.id), 10),
				"from", string(t.from), "to", string(t.to))
		}
		if a.onTransition != nil {
			a.onTransition(t.id, t.from, t.to)
		}
	}
}

// AgentSeq returns the last report sequence number seen from agent (0 if
// the agent has never reported).
func (a *Aggregator) AgentSeq(agent uint32) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if st := a.agents[agent]; st != nil {
		return st.lastSeq
	}
	return 0
}

// AgentView is one agent's health row in the /fleet view.
type AgentView struct {
	ID      uint32 `json:"id"`
	State   State  `json:"state"`
	LastSeq uint64 `json:"last_seq"`
	Reports uint64 `json:"reports"`
	Bytes   uint64 `json:"bytes"`
	Gaps    uint64 `json:"gaps"`
	// SilenceMS is how long ago the last report arrived.
	SilenceMS int64 `json:"silence_ms"`
	Series    int   `json:"series"`
}

// View is the /fleet JSON document.
type View struct {
	Agents       []AgentView    `json:"agents"`
	States       map[string]int `json:"states"`
	DecodeErrors int64          `json:"decode_errors"`
	// Totals are the fleet-wide aggregates: rollup series summed across
	// agents (the agent label stripped), sorted by name then labels.
	Totals []obs.Sample `json:"totals"`
}

// Agents returns per-agent health rows sorted by agent ID.
func (a *Aggregator) Agents() []AgentView {
	now := a.clock()
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]AgentView, 0, len(a.agents))
	for _, st := range a.agents {
		out = append(out, AgentView{
			ID:        st.id,
			State:     st.state,
			LastSeq:   st.lastSeq,
			Reports:   st.reports,
			Bytes:     st.bytes,
			Gaps:      st.gaps,
			SilenceMS: now.Sub(st.lastReport).Milliseconds(),
			Series:    len(st.dict),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Samples returns the rollup registry's series (per-agent labels intact)
// sorted by name then labels — a deterministic snapshot independent of
// report arrival order.
func (a *Aggregator) Samples() []obs.Sample {
	out := obs.Snapshot(a.rollup)
	sortSamples(out)
	return out
}

// TotalsSamples sums the rollup across agents: the agent label is
// stripped and equal series merged (counters and gauges add; histograms
// add count/sum/buckets when bounds match). Sorted by name then labels.
func (a *Aggregator) TotalsSamples() []obs.Sample {
	in := obs.Snapshot(a.rollup)
	idx := map[string]int{}
	var out []obs.Sample
	for _, s := range in {
		labels := make(map[string]string, len(s.Labels))
		for k, v := range s.Labels {
			if k == "agent" {
				continue
			}
			labels[k] = v
		}
		if len(labels) == 0 {
			labels = nil
		}
		t := s
		t.Labels = labels
		key := sampleKey(&t)
		i, ok := idx[key]
		if !ok {
			t.Bounds = append([]float64(nil), s.Bounds...)
			t.Buckets = append([]int64(nil), s.Buckets...)
			idx[key] = len(out)
			out = append(out, t)
			continue
		}
		dst := &out[i]
		switch s.Kind {
		case obs.KindCounter, obs.KindGauge:
			dst.Value += s.Value
		case obs.KindHistogram:
			if len(dst.Buckets) != len(s.Buckets) {
				continue
			}
			dst.Count += s.Count
			dst.Sum += s.Sum
			for j, b := range s.Buckets {
				dst.Buckets[j] += b
			}
		}
	}
	sortSamples(out)
	return out
}

// View assembles the full /fleet document.
func (a *Aggregator) View() View {
	v := View{
		Agents: a.Agents(),
		States: map[string]int{},
		Totals: a.TotalsSamples(),
	}
	for _, ag := range v.Agents {
		v.States[string(ag.State)]++
	}
	a.mu.Lock()
	v.DecodeErrors = a.decodeErrs.Value()
	a.mu.Unlock()
	return v
}

// ServeHTTP serves the /fleet JSON document.
func (a *Aggregator) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(a.View())
}

// RegisterHTTP mounts this aggregator at /fleet on the obs telemetry
// surface (replacing any previous aggregator).
func (a *Aggregator) RegisterHTTP() {
	obs.RegisterHandler("/fleet", a)
}

func sampleKey(s *obs.Sample) string {
	key := s.Name
	if len(s.Labels) > 0 {
		keys := make([]string, 0, len(s.Labels))
		for k := range s.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			key += "\x00" + k + "\x00" + s.Labels[k]
		}
	}
	return key
}

func sortSamples(ss []obs.Sample) {
	sort.SliceStable(ss, func(i, j int) bool {
		return sampleKey(&ss[i]) < sampleKey(&ss[j])
	})
}
