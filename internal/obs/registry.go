// Package obs is TinyLEO's runtime telemetry subsystem: a concurrency-safe
// metrics registry (counters, gauges, fixed-bucket histograms), a tracer
// whose one ring buffer holds spans and instant events on one clock, and
// exposition in Prometheus text, the JSON sample document (see Doc) and
// record JSONL (see Event).
//
// Design goals, in order:
//
//  1. Hot-path safety: instrument operations are lock-free (sync/atomic)
//     and, against a disabled registry, cost a single atomic load — a few
//     nanoseconds — so instrumentation can live unconditionally in the MPC
//     compile loop, the southbound read loop, and the per-packet forwarder
//     (see bench_test.go).
//  2. Zero dependencies: exposition speaks the Prometheus text format
//     directly, with only the stdlib.
//  3. One registry per scope: a process-wide Default() registry (disabled
//     until Enable()) for package-level instrumentation, plus per-component
//     registries (e.g. one per southbound Controller) that are always
//     enabled and merged at exposition time.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind discriminates instrument types in snapshots.
type Kind string

// Instrument kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// DefBuckets is the default histogram bucketing for durations in seconds:
// 100 µs … 10 s, roughly logarithmic (the paper's control-loop timescales:
// sub-ms data-plane failover up to multi-second solver iterations).
var DefBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// HopBuckets buckets small integer path lengths (data-plane hop counts).
var HopBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}

// Registry holds named instruments. All methods are safe for concurrent
// use. Instruments created from a disabled registry are retained but drop
// all writes until the registry is enabled.
type Registry struct {
	enabled atomic.Bool

	mu sync.Mutex
	//tinyleo:guardedby mu
	index map[string]*series
	//tinyleo:guardedby mu
	order []*series
}

type series struct {
	name   string
	labels []labelPair // sorted by key
	kind   Kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

type labelPair struct{ k, v string }

// NewRegistry creates a registry; enabled selects whether instrument
// writes are recorded from the start.
func NewRegistry(enabled bool) *Registry {
	r := &Registry{index: map[string]*series{}}
	r.enabled.Store(enabled)
	return r
}

var defaultRegistry = NewRegistry(false)

// Default returns the process-wide registry used by package-level
// instrumentation across internal/mpc, internal/dataplane, internal/core,
// and the southbound agent. It starts disabled: instrumented code costs
// ~1 ns/op until Enable is called.
func Default() *Registry { return defaultRegistry }

// Enable turns on the default registry (and is the switch behind the
// -metrics-addr CLI flags).
func Enable() { defaultRegistry.SetEnabled(true) }

// Enabled reports whether writes are recorded.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// SetEnabled toggles recording. Already-registered instruments observe the
// change immediately (they share the registry's flag).
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// seriesKey renders the canonical map key; labels must already be sorted.
func seriesKey(name string, labels []labelPair) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, lp := range labels {
		b.WriteByte(0)
		b.WriteString(lp.k)
		b.WriteByte(0)
		b.WriteString(lp.v)
	}
	return b.String()
}

func parseLabels(name string, kvs []string) []labelPair {
	if len(kvs)%2 != 0 {
		panic(fmt.Sprintf("obs: %s: odd label list %q", name, kvs))
	}
	if len(kvs) == 0 {
		return nil
	}
	out := make([]labelPair, 0, len(kvs)/2)
	for i := 0; i < len(kvs); i += 2 {
		out = append(out, labelPair{k: kvs[i], v: kvs[i+1]})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].k < out[b].k })
	return out
}

// lookup returns the series for (name, labels, kind), creating it with
// mk() on first use. Re-registering the same name with a different kind
// panics: it would corrupt exposition.
func (r *Registry) lookup(name string, kvs []string, kind Kind, mk func() *series) *series {
	labels := parseLabels(name, kvs)
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.index[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: %s re-registered as %s (was %s)", name, kind, s.kind))
		}
		return s
	}
	for _, s := range r.order {
		if s.name == name && s.kind != kind {
			panic(fmt.Sprintf("obs: %s re-registered as %s (was %s)", name, kind, s.kind))
		}
	}
	s := mk()
	s.name, s.labels, s.kind = name, labels, kind
	r.index[key] = s
	r.order = append(r.order, s)
	return s
}

// Counter returns (registering on first use) the counter for name and the
// given key/value label pairs, e.g.
//
//	r.Counter("southbound_messages_total", "dir", "rx", "type", "hello")
func (r *Registry) Counter(name string, kvs ...string) *Counter {
	s := r.lookup(name, kvs, KindCounter, func() *series {
		return &series{c: &Counter{on: &r.enabled}}
	})
	return s.c
}

// Gauge returns (registering on first use) the gauge for name and labels.
func (r *Registry) Gauge(name string, kvs ...string) *Gauge {
	s := r.lookup(name, kvs, KindGauge, func() *series {
		return &series{g: &Gauge{on: &r.enabled}}
	})
	return s.g
}

// Histogram returns (registering on first use) the fixed-bucket histogram
// for name and labels. bounds are inclusive upper bucket bounds in
// ascending order; a +Inf bucket is implicit. bounds are only consulted on
// first registration.
func (r *Registry) Histogram(name string, bounds []float64, kvs ...string) *Histogram {
	s := r.lookup(name, kvs, KindHistogram, func() *series {
		if len(bounds) == 0 {
			bounds = DefBuckets
		}
		if !sort.Float64sAreSorted(bounds) {
			panic(fmt.Sprintf("obs: %s: histogram bounds not sorted", name))
		}
		return &series{h: &Histogram{
			on:      &r.enabled,
			bounds:  append([]float64(nil), bounds...),
			buckets: make([]atomic.Int64, len(bounds)+1),
		}}
	})
	return s.h
}

// ---- Instruments ----

// Counter is a monotonically increasing int64. The zero-cost disabled path
// is a single atomic bool load.
type Counter struct {
	v  atomic.Int64
	on *atomic.Bool
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increments by n (n < 0 is ignored: counters are monotonic).
func (c *Counter) Add(n int64) {
	if n <= 0 || !c.on.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float64 value.
type Gauge struct {
	bits atomic.Uint64
	on   *atomic.Bool
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if !g.on.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta (CAS loop; safe concurrently).
func (g *Gauge) Add(delta float64) {
	if !g.on.Load() {
		return
	}
	addFloatBits(&g.bits, delta)
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets (Prometheus-style
// cumulative exposition; raw per-bucket counts in JSON snapshots).
type Histogram struct {
	on      *atomic.Bool
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if !h.on.Load() {
		return
	}
	h.buckets[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	addFloatBits(&h.sumBits, v)
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bounds returns the histogram's bucket bounds (shared slice; do not
// mutate).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Merge folds pre-aggregated observations into the histogram: count and
// sum deltas plus raw per-bucket count deltas (len(bounds)+1 entries, the
// last being +Inf). It is the primitive fleet aggregation is built on —
// an agent ships its histogram state as deltas and the rollup registry
// merges them here. Returns false (merging nothing) when the bucket
// layout does not match.
func (h *Histogram) Merge(count int64, sum float64, buckets []int64) bool {
	if !h.on.Load() {
		return true
	}
	if len(buckets) != len(h.buckets) {
		return false
	}
	for i, d := range buckets {
		if d > 0 {
			h.buckets[i].Add(d)
		}
	}
	if count > 0 {
		h.count.Add(count)
	}
	addFloatBits(&h.sumBits, sum)
	return true
}

func addFloatBits(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}
