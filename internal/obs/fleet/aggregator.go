package fleet

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flightrec"
)

// State is an agent's report-staleness health state. Its value is the
// agent's MetricAgentState gauge.
type State int

// Staleness states, ordered healthy → lagging → silent.
const (
	StateHealthy State = iota
	StateLagging
	StateSilent
)

// String names the state ("unknown" outside them, as a gauge read back
// from a file may be).
func (s State) String() string {
	if s < StateHealthy || s > StateSilent {
		return "unknown"
	}
	return [...]string{"healthy", "lagging", "silent"}[s]
}

// The rollup series the aggregator sets itself, the tinyleo_fleet_
// namespace (an agent's series there is not folded). The per-agent ones,
// labeled agent=<id>, are its reports (a duplicate delivery is not a
// second report), their bytes, the sequence numbers it skipped (reports
// lost in transit), and, as of the last Tick, its State (0 healthy, 1
// lagging, 2 silent) and the age of its last report.
const (
	MetricAgents       = "tinyleo_fleet_agents"
	MetricAgentsSilent = "tinyleo_fleet_agents_silent"
	MetricDecodeErrors = "tinyleo_fleet_decode_errors_total"
	MetricReports      = "tinyleo_fleet_reports_total"
	MetricReportBytes  = "tinyleo_fleet_report_bytes_total"
	MetricGaps         = "tinyleo_fleet_gaps_total"
	MetricAgentState   = "tinyleo_fleet_agent_state"
	MetricAgentSilence = "tinyleo_fleet_agent_silence_seconds"
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

// ErrMalformed reports a fleet report that is not a valid sample document.
var ErrMalformed = errors.New("fleet: malformed report")

// seriesState is one agent series in the rollup: the rollup instrument
// (nil when the series' kind clashes with the rollup's) and the last
// absolute row the agent reported. A report row folds in as row − last.
type seriesState struct {
	c    *obs.Counter
	g    *obs.Gauge
	h    *obs.Histogram
	last obs.Sample
}

// agentState is everything the aggregator tracks per reporting agent.
type agentState struct {
	// series is keyed by obs.Sample.Key.
	series map[string]*seriesState

	lastReport time.Time
	lastSeq    uint64
	// The agent's rollup meta series; stateG holds its State.
	reports, bytes, gaps *obs.Counter
	stateG, silenceG     *obs.Gauge
}

// Aggregator merges per-agent fleet reports into one always-enabled
// rollup registry (every series relabeled with agent=<id>) and tracks
// per-agent report staleness there too, as the Metric* series.
// HandleReport is called from southbound connection goroutines; Tick from
// a single clock goroutine — all state transitions happen in Tick, in
// agent-ID order, so campaigns driving a virtual clock get deterministic
// event sequences.
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
	kinds      map[string]obs.Kind // rollup name → kind, guards kind clashes
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
	a.decodeErrs = a.rollup.Counter(MetricDecodeErrors)
	a.agentsG = a.rollup.Gauge(MetricAgents)
	a.silentG = a.rollup.Gauge(MetricAgentsSilent)
	return a
}

// Registry returns the rollup registry (always enabled): the fleet's one
// document, merged into the controller's telemetry surface, its SLO
// engine and its -metrics-out file.
func (a *Aggregator) Registry() *obs.Registry { return a.rollup }

// decode parses a report and checks it against the report limits. The
// rollup registry panics on unsorted histogram bounds and Histogram.Merge
// needs one bucket per bound plus +Inf, so both are checked here, once.
func decode(payload []byte) (*obs.Doc, error) {
	if len(payload) > MaxReportBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrMalformed, len(payload))
	}
	doc, err := obs.DecodeDoc(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if doc.Seq == 0 || len(doc.Series) > MaxReportSeries {
		return nil, fmt.Errorf("%w: seq %d, %d series", ErrMalformed, doc.Seq, len(doc.Series))
	}
	for i := range doc.Series {
		s := &doc.Series[i]
		ok := len(s.Name) <= MaxStringLen && len(s.Labels) <= MaxLabels
		for k, v := range s.Labels {
			ok = ok && len(k) <= MaxStringLen && len(v) <= MaxStringLen
		}
		switch s.Kind {
		case obs.KindCounter:
			ok = ok && s.Value >= 0 && s.Value < 1<<63 && s.Value == math.Trunc(s.Value)
		case obs.KindGauge:
			ok = ok && finite(s.Value)
		case obs.KindHistogram:
			ok = ok && s.Count >= 0 && finite(s.Sum) && len(s.Bounds) <= MaxBounds && len(s.Buckets) == len(s.Bounds)+1 &&
				sort.Float64sAreSorted(s.Bounds)
			for _, b := range s.Buckets {
				ok = ok && b >= 0
			}
		default:
			ok = false
		}
		if !ok {
			return nil, fmt.Errorf("%w: series %d (%q)", ErrMalformed, i, s.Name)
		}
	}
	return doc, nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// resolveLocked binds an agent series to its rollup instrument, labeled
// agent=<id> (the label is the rollup's; an agent's own is dropped). A
// series whose kind clashes with the rollup's series of that name, or
// whose name is in the aggregator's own tinyleo_fleet_ namespace, gets
// none (its rows are then skipped, not fatal). Callers hold a.mu.
func (a *Aggregator) resolveLocked(id uint32, s *obs.Sample) *seriesState {
	ss := &seriesState{}
	if k, ok := a.kinds[s.Name]; ok && k != s.Kind || strings.HasPrefix(s.Name, "tinyleo_fleet_") {
		return ss
	}
	a.kinds[s.Name] = s.Kind
	kvs := make([]string, 0, 2*len(s.Labels)+2)
	for k, v := range s.Labels {
		if k != "agent" {
			//lint:tinyleo-ignore the registry sorts label pairs by key before it uses them
			kvs = append(kvs, k, v)
		}
	}
	kvs = append(kvs, "agent", strconv.FormatUint(uint64(id), 10))
	switch s.Kind {
	case obs.KindCounter:
		ss.c = a.rollup.Counter(s.Name, kvs...)
	case obs.KindGauge:
		ss.g = a.rollup.Gauge(s.Name, kvs...)
	case obs.KindHistogram:
		ss.h = a.rollup.Histogram(s.Name, s.Bounds, kvs...)
	}
	return ss
}

// fold merges one absolute row into the rollup as its difference from the
// agent's last row. A count that went backwards is an agent restart: the
// new process counts from zero, so the row contributes its full value.
func (ss *seriesState) fold(s *obs.Sample) {
	last := ss.last
	ss.last = *s
	switch {
	case s.Kind == obs.KindCounter && ss.c != nil:
		if s.Value < last.Value {
			last.Value = 0
		}
		ss.c.Add(int64(s.Value) - int64(last.Value))
	case s.Kind == obs.KindGauge && ss.g != nil:
		ss.g.Set(s.Value)
	case s.Kind == obs.KindHistogram && ss.h != nil:
		restarted := s.Count < last.Count || len(s.Buckets) != len(last.Buckets)
		for i := 0; !restarted && i < len(s.Buckets); i++ {
			restarted = s.Buckets[i] < last.Buckets[i]
		}
		if restarted {
			last = obs.Sample{Buckets: make([]int64, len(s.Buckets))}
		}
		d := make([]int64, len(s.Buckets))
		for i, b := range s.Buckets {
			d[i] = b - last.Buckets[i]
		}
		ss.h.Merge(s.Count-last.Count, s.Sum-last.Sum, d)
	}
}

// HandleReport decodes, validates and merges one agent report. It is the
// (*southbound.Controller).OnTelemetry callback. A malformed report is
// counted and dropped whole; the error return is for tests and logs.
//
// Rows are absolute, so the protocol keeps no session: a duplicate folds
// to nothing, a lost report is healed by the next one that touches the
// series, and a sequence number that went backwards is a restarted agent
// (one agent's reports arrive in order: it has one session at a time).
func (a *Aggregator) HandleReport(agent uint32, payload []byte) error {
	doc, err := decode(payload)
	if err != nil {
		a.decodeErrs.Inc()
		return fmt.Errorf("fleet: agent %d report: %w", agent, err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.agents[agent]
	if st == nil {
		agl := strconv.FormatUint(uint64(agent), 10)
		st = &agentState{
			series:   map[string]*seriesState{},
			reports:  a.rollup.Counter(MetricReports, "agent", agl),
			bytes:    a.rollup.Counter(MetricReportBytes, "agent", agl),
			gaps:     a.rollup.Counter(MetricGaps, "agent", agl),
			stateG:   a.rollup.Gauge(MetricAgentState, "agent", agl),
			silenceG: a.rollup.Gauge(MetricAgentSilence, "agent", agl),
		}
		a.agents[agent] = st
	}
	st.lastReport = a.clock()
	if doc.Seq != st.lastSeq { // a duplicate delivery is not a second report
		if st.lastSeq != 0 && doc.Seq > st.lastSeq+1 {
			st.gaps.Add(int64(doc.Seq - st.lastSeq - 1))
		}
		st.lastSeq = doc.Seq
		st.reports.Inc()
		st.bytes.Add(int64(len(payload)))
	}
	for i := range doc.Series {
		s := &doc.Series[i]
		key := s.Key()
		ss := st.series[key]
		if ss == nil {
			ss = a.resolveLocked(agent, s)
			st.series[key] = ss
		}
		ss.fold(s)
	}
	return nil
}

// Tick advances staleness tracking to the current clock reading: every
// agent's state is recomputed from its last report age, transitions fire
// flight events and the OnTransition hook in agent-ID order, and the
// fleet and per-agent gauges refresh. Call it from exactly one goroutine
// (a ticker, or the chaos engine loop).
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
		silence, next := now.Sub(st.lastReport), StateHealthy
		switch {
		case silence >= a.silentAfter:
			next = StateSilent
		case silence >= a.lagAfter:
			next = StateLagging
		}
		if prev := State(st.stateG.Value()); next != prev {
			trans = append(trans, transition{id: id, from: prev, to: next})
		}
		st.stateG.Set(float64(next))
		st.silenceG.Set(silence.Seconds())
		if next == StateSilent {
			silent++
		}
	}
	a.agentsG.Set(float64(len(ids)))
	a.silentG.Set(float64(silent))
	a.mu.Unlock()
	for _, t := range trans {
		typ := "agent_" + t.to.String()
		if t.to == StateHealthy {
			typ = "agent_recovered"
		}
		if a.tracer.Enabled() {
			a.tracer.Emit(flightrec.EventName(flightrec.CompFleet, typ),
				"agent", strconv.FormatUint(uint64(t.id), 10),
				"from", t.from.String(), "to", t.to.String())
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
