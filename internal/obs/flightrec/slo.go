package flightrec

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
)

// Rule kinds: the built-in service-level indicators (the paper's headline
// SLOs, which DefaultRules uses, and the drop ratio) plus a generic
// raw-metric selector for any other series.
const (
	// SLOAvailability is the intent enforcement ratio
	// (tinyleo_mpc_enforcement_ratio), the paper's availability SLO.
	SLOAvailability = "availability"
	// SLODeficitRatio is deficit / (deficit + compiled inter-cell ISLs):
	// the paper's deficit-slot ratio.
	SLODeficitRatio = "deficit_ratio"
	// SLORepairP99 is the p99 end-to-end repair latency (s), the
	// stage="total" series of tinyleo_mpc_repair_stage_seconds.
	SLORepairP99 = "repair_p99"
	// SLODropRatio is dropped / (forwarded + delivered) packets.
	SLODropRatio = "drop_ratio"
	// SLOMetric compares a raw series by name (counters summed across
	// label sets, gauges read directly, histograms at p99).
	SLOMetric = "metric"
)

// Rule is one declarative SLO threshold.
type Rule struct {
	// Name identifies the rule ("availability", or a custom name).
	Name string `json:"name"`
	// Kind selects the indicator (one of the SLO* constants).
	Kind string `json:"kind"`
	// Metric names the raw series for Kind == SLOMetric.
	Metric string `json:"metric,omitempty"`
	// Op is "<=" or ">=".
	Op string `json:"op"`
	// Threshold is the SLO boundary.
	Threshold float64 `json:"threshold"`
}

// Expr renders the rule as its spec string.
func (r Rule) Expr() string {
	name := r.Name
	if r.Kind == SLOMetric && r.Metric != "" {
		name = r.Metric
	}
	return fmt.Sprintf("%s%s%g", name, r.Op, r.Threshold)
}

// RuleStatus is one rule's latest evaluation.
type RuleStatus struct {
	Rule
	// Value is the indicator's current value (NaN when not yet
	// observable, e.g. a quantile of an empty histogram: no breach live,
	// a breach in Score).
	Value float64 `json:"value"`
	// Breached reports whether the current value violates the threshold.
	Breached bool `json:"breached"`
	// Breaches counts healthy→breached transitions since engine start.
	Breaches int64 `json:"breaches_total"`
	// EvalUS is the evaluation time in µs since the record stream's epoch
	// (0 from an engine without a tracer, and from EvalRules).
	EvalUS int64 `json:"eval_us"`
}

// statusJSON is RuleStatus's JSON form: the rule flattened beside its
// spec string, and a NaN value as null (JSON has no NaN).
type statusJSON struct {
	Name     string   `json:"name"`
	Expr     string   `json:"expr"`
	Kind     string   `json:"kind"`
	Metric   string   `json:"metric,omitempty"`
	Op       string   `json:"op"`
	Thresh   float64  `json:"threshold"`
	Value    *float64 `json:"value"`
	Breached bool     `json:"breached"`
	Breaches int64    `json:"breaches_total"`
	EvalUS   int64    `json:"eval_us"`
}

// MarshalJSON writes the statusJSON form.
func (s RuleStatus) MarshalJSON() ([]byte, error) {
	a := statusJSON{
		Name: s.Name, Expr: s.Rule.Expr(), Kind: s.Kind, Metric: s.Metric,
		Op: s.Op, Thresh: s.Threshold,
		Breached: s.Breached, Breaches: s.Breaches, EvalUS: s.EvalUS,
	}
	if !math.IsNaN(s.Value) {
		a.Value = &s.Value
	}
	return json.Marshal(a)
}

// UnmarshalJSON is the inverse of MarshalJSON (null value → NaN).
func (s *RuleStatus) UnmarshalJSON(b []byte) error {
	var a statusJSON
	if err := json.Unmarshal(b, &a); err != nil {
		return err
	}
	*s = RuleStatus{
		Rule:     Rule{Name: a.Name, Kind: a.Kind, Metric: a.Metric, Op: a.Op, Threshold: a.Thresh},
		Value:    math.NaN(),
		Breached: a.Breached, Breaches: a.Breaches, EvalUS: a.EvalUS,
	}
	if a.Value != nil {
		s.Value = *a.Value
	}
	return nil
}

// DefaultRules are the paper's headline SLOs with lenient defaults:
// availability ≥ 95%, deficit-slot ratio ≤ 10%, p99 repair ≤ 200 ms.
func DefaultRules() []Rule {
	return []Rule{
		{Name: SLOAvailability, Kind: SLOAvailability, Op: ">=", Threshold: 0.95},
		{Name: SLODeficitRatio, Kind: SLODeficitRatio, Op: "<=", Threshold: 0.10},
		{Name: SLORepairP99, Kind: SLORepairP99, Op: "<=", Threshold: 0.2},
	}
}

// ParseRules parses a comma-separated SLO spec, e.g.
//
//	availability>=0.99,deficit_ratio<=0.05,repair_p99<=0.1,tinyleo_mpc_compile_total>=3
//
// Known indicator names map to the built-in kinds; any other name is
// treated as a raw metric series (SLOMetric).
func ParseRules(spec string) ([]Rule, error) {
	var out []Rule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		op := ">="
		i := strings.Index(part, op)
		if i < 0 {
			op = "<="
			i = strings.Index(part, op)
		}
		if i < 0 {
			return nil, fmt.Errorf("flightrec: SLO rule %q: want name>=x or name<=x", part)
		}
		name := strings.TrimSpace(part[:i])
		thr, err := strconv.ParseFloat(strings.TrimSpace(part[i+len(op):]), 64)
		switch {
		case name == "":
			return nil, fmt.Errorf("flightrec: SLO rule %q: no indicator or series name", part)
		case err != nil || math.IsNaN(thr) || math.IsInf(thr, 0):
			return nil, fmt.Errorf("flightrec: SLO rule %q: threshold is not a finite number", part)
		}
		r := Rule{Name: name, Op: op, Threshold: thr}
		switch name {
		case SLOAvailability, SLODeficitRatio, SLORepairP99, SLODropRatio:
			r.Kind = name
		default:
			r.Kind = SLOMetric
			r.Metric = name
		}
		out = append(out, r)
	}
	return out, nil
}

// Engine evaluates SLO rules against rolling registry metrics, emits
// slo.slo_breach/slo.slo_recovered events on transitions, and serves /slo.
// All methods are safe for concurrent use.
type Engine struct {
	tracer *obs.Tracer
	regs   []*obs.Registry
	rules  []Rule

	mu sync.Mutex
	//tinyleo:guardedby mu
	status []RuleStatus
}

// NewEngine builds an engine over the given tracer — the stream it writes
// transitions to; nil for none — the registries it reads metrics from
// (none = obs.Default()), and rules (empty rules = DefaultRules).
func NewEngine(tracer *obs.Tracer, regs []*obs.Registry, rules ...Rule) *Engine {
	if len(regs) == 0 {
		regs = []*obs.Registry{obs.Default()}
	}
	if len(rules) == 0 {
		rules = DefaultRules()
	}
	e := &Engine{tracer: tracer, regs: regs, rules: rules, status: make([]RuleStatus, len(rules))}
	for i, r := range rules {
		e.status[i] = RuleStatus{Rule: r, Value: math.NaN()}
	}
	return e
}

// Eval evaluates every rule against the current metric state with
// EvalRules (NaN, not yet observable, is no breach), records transitions,
// and returns the statuses.
func (e *Engine) Eval() []RuleStatus {
	now := int64(0)
	if e.tracer != nil {
		now = e.tracer.NowUS()
	}
	next := EvalRules(e.rules, obs.Snapshot(e.regs...))

	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range next {
		st, was := &next[i], e.status[i]
		st.Breaches, st.EvalUS = was.Breaches, now
		v := strconv.FormatFloat(st.Value, 'g', 6, 64)
		if st.Breached && !was.Breached {
			st.Breaches++
			obs.Default().Counter("tinyleo_slo_breaches_total", "rule", st.Name).Inc()
			e.emit("slo_breach", "rule", st.Name, "expr", st.Rule.Expr(), "value", v)
		} else if !st.Breached && was.Breached {
			e.emit("slo_recovered", "rule", st.Name, "value", v)
		}
	}
	e.status = next
	return append([]RuleStatus(nil), next...)
}

func (e *Engine) emit(typ string, attrs ...string) {
	if e.tracer != nil {
		e.tracer.Emit(EventName(CompSLO, typ), attrs...)
	}
}

// EvalRules evaluates rules against a static sample snapshot, without
// engine state: no breach transitions are tracked, no events are emitted,
// and EvalUS stays zero. A rule whose value is NaN (not yet observable) is
// not breached. Engine.Eval and Score both judge with it.
func EvalRules(rules []Rule, samples []obs.Sample) []RuleStatus {
	out := make([]RuleStatus, len(rules))
	for i, r := range rules {
		v := evalIndicator(r, samples)
		breached := false
		switch {
		case math.IsNaN(v):
		case r.Op == ">=":
			breached = v < r.Threshold
		default: // "<="
			breached = v > r.Threshold
		}
		out[i] = RuleStatus{Rule: r, Value: v, Breached: breached}
	}
	return out
}

// Score judges a finished run (a chaos campaign, a testground run's
// metrics file) and returns the verdicts and how many are breached. It is
// EvalRules, except that a NaN value is a breach: a run that has ended
// will never observe a series it lacks.
func Score(rules []Rule, samples []obs.Sample) ([]RuleStatus, int) {
	status := EvalRules(rules, samples)
	breached := 0
	for i := range status {
		if math.IsNaN(status[i].Value) {
			status[i].Breached = true
		}
		if status[i].Breached {
			breached++
		}
	}
	return status, breached
}

// evalIndicator computes one rule's current value from the metric
// samples. NaN means "not yet observable". Engine.Eval and EvalRules share
// it.
func evalIndicator(r Rule, samples []obs.Sample) float64 {
	switch r.Kind {
	case SLOAvailability:
		return gaugeValue(samples, "tinyleo_mpc_enforcement_ratio")
	case SLODeficitRatio:
		def := gaugeValue(samples, "tinyleo_mpc_gateway_deficit_slots")
		inter := gaugeValue(samples, "tinyleo_mpc_inter_links")
		if math.IsNaN(def) || math.IsNaN(inter) || def+inter == 0 {
			return math.NaN()
		}
		return def / (def + inter)
	case SLORepairP99:
		return histQuantile(samples, "tinyleo_mpc_repair_stage_seconds",
			map[string]string{"stage": "total"}, 0.99)
	case SLODropRatio:
		dropped := counterSum(samples, "tinyleo_dataplane_dropped_total")
		ok := counterSum(samples, "tinyleo_dataplane_forwarded_total") +
			counterSum(samples, "tinyleo_dataplane_delivered_total")
		if dropped+ok == 0 {
			return math.NaN()
		}
		return dropped / (dropped + ok)
	default: // SLOMetric
		for _, s := range samples {
			if s.Name != r.Metric {
				continue
			}
			switch s.Kind {
			case obs.KindGauge:
				return s.Value
			case obs.KindCounter:
				return counterSum(samples, r.Metric)
			case obs.KindHistogram:
				return histQuantile(samples, r.Metric, nil, 0.99)
			}
		}
		return math.NaN()
	}
}

func gaugeValue(samples []obs.Sample, name string) float64 {
	for _, s := range samples {
		if s.Name == name && s.Kind == obs.KindGauge {
			return s.Value
		}
	}
	return math.NaN()
}

func counterSum(samples []obs.Sample, name string) float64 {
	total, seen := 0.0, false
	for _, s := range samples {
		if s.Name == name && s.Kind == obs.KindCounter {
			total += s.Value
			seen = true
		}
	}
	if !seen {
		return math.NaN()
	}
	return total
}

// histQuantile estimates quantile q from a fixed-bucket histogram sample
// matched by name and label subset, interpolating linearly within the
// containing bucket (the +Inf bucket yields its lower bound).
func histQuantile(samples []obs.Sample, name string, labels map[string]string, q float64) float64 {
	for _, s := range samples {
		if s.Name != name || s.Kind != obs.KindHistogram || !labelsMatch(s.Labels, labels) {
			continue
		}
		if s.Count == 0 {
			return math.NaN()
		}
		rank := q * float64(s.Count)
		cum := int64(0)
		for i, c := range s.Buckets {
			cum += c
			if float64(cum) < rank {
				continue
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			if i >= len(s.Bounds) {
				return lo // +Inf bucket: no finite upper bound
			}
			hi := s.Bounds[i]
			if c == 0 {
				return hi
			}
			frac := (rank - float64(cum-c)) / float64(c)
			return lo + frac*(hi-lo)
		}
		return math.NaN()
	}
	return math.NaN()
}

func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// ServeHTTP evaluates the rules and writes the /slo JSON document:
//
//	{"evaluated_at_us":..., "rules":[{name, expr, value, threshold, ...}]}
func (e *Engine) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	statuses := e.Eval()
	breached := 0
	for _, s := range statuses {
		if s.Breached {
			breached++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Breached int          `json:"breached"`
		Rules    []RuleStatus `json:"rules"`
	}{breached, statuses})
}

var httpOnce sync.Once

// registerHTTP mounts /slo on the obs telemetry surface. The handler
// resolves the default engine at request time, so re-Enable swaps
// recordings without re-registration.
func registerHTTP() {
	httpOnce.Do(func() {
		obs.RegisterHandler("/slo", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			eng := DefaultSLOEngine()
			if eng == nil {
				http.Error(w, "flight recorder disabled", http.StatusServiceUnavailable)
				return
			}
			eng.ServeHTTP(w, r)
		}))
	})
}
