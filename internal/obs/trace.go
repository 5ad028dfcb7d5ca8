package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one record in the trace ring: a completed span, or — with
// Instant set — a point event (Tracer.Emit; the flight recorder's typed
// events are named "component.type"). Both kinds share the ring, the
// epoch and the clock, so an event can be placed among the spans around
// it. Trace/Span/Parent are hex-encoded causal identifiers (empty on
// events and on the meta record).
//
// One Event is one line of the record file (WriteJSONL, the /trace
// endpoint, a flight recording); the JSON keys below are that line's
// schema.
type Event struct {
	Name string `json:"name"`
	// StartUS/DurUS are microseconds since tracer enable / span duration
	// (0 for an instant event).
	StartUS int64             `json:"start_us"`
	DurUS   int64             `json:"dur_us"`
	Trace   string            `json:"trace,omitempty"`
	Span    string            `json:"span,omitempty"`
	Parent  string            `json:"parent,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	// Seq numbers every record of the ring in commit order, from 1. It
	// survives wrap-around, so a gap reveals overwritten history and a
	// poller passing its last-seen Seq tails the ring (/trace?since=).
	Seq uint64 `json:"seq,omitempty"`
	// Instant marks a point event rather than a span.
	Instant bool `json:"instant,omitempty"`
}

// MetaEventName names the pseudo-event WriteJSONL emits first: it carries
// the process name, the tracer epoch in absolute microseconds (which the
// cross-process merger, internal/obs/tracemerge, needs to place this dump
// on a shared timeline) and how many records the ring has overwritten.
const MetaEventName = "_tinyleo_trace_meta"

// MetaEvent builds the meta record of a dump: process name (omitted when
// empty), epoch in Unix microseconds, overwritten-record count (omitted
// when zero).
func MetaEvent(proc string, epochUS, dropped int64) Event {
	meta := Event{
		Name:  MetaEventName,
		Attrs: map[string]string{"epoch_unix_us": strconv.FormatInt(epochUS, 10)},
	}
	if proc != "" {
		meta.Attrs["proc"] = proc
	}
	if dropped > 0 {
		meta.Attrs["dropped"] = strconv.FormatInt(dropped, 10)
	}
	return meta
}

// Tracer records spans and instant events into one fixed-capacity ring
// buffer: the newest records win, so a long-running emulation keeps the
// recent control-loop history without unbounded memory. Disabled tracers
// drop both at the cost of one atomic load.
//
// Spans carry causal identity (TraceID/SpanID/parent) so a trace started
// in one process can be continued in another: StartSpanCtx continues a
// propagated SpanContext, Span.Context returns the context to propagate.
// IDs derive from a seed and an atomic sequence — seed explicitly via
// SeedIDs for reproducible campaigns, or let Enable derive one from the
// epoch. SetClock replaces the wall clock (the chaos engine injects its
// virtual clock so recorded timestamps are deterministic).
type Tracer struct {
	on     atomic.Bool
	idSeed atomic.Uint64
	idSeq  atomic.Uint64
	clock  atomic.Pointer[func() time.Time]

	mu sync.Mutex
	//tinyleo:guardedby mu
	seeded bool
	//tinyleo:guardedby mu
	proc string
	//tinyleo:guardedby mu
	buf []record
	// seq counts the records ever committed: the newest one's sequence
	// number, and (mod capacity) the next slot to write.
	//tinyleo:guardedby mu
	seq uint64
	//tinyleo:guardedby mu
	epoch time.Time
}

// DefaultTraceCapacity is the ring size used by EnableTracing(0).
const DefaultTraceCapacity = 4096

var defaultTracer = &Tracer{}

// Trace returns the process-wide tracer (disabled until EnableTracing).
func Trace() *Tracer { return defaultTracer }

// EnableTracing enables the default tracer with the given ring capacity
// (0 = DefaultTraceCapacity).
func EnableTracing(capacity int) { defaultTracer.Enable(capacity) }

// StartSpan opens a root span on the default tracer; attrs are key/value
// pairs. The returned span records on End().
func StartSpan(name string, attrs ...string) Span { return defaultTracer.StartSpan(name, attrs...) }

// StartSpanCtx opens a span on the default tracer as a child of parent
// (a zero parent starts a new root).
func StartSpanCtx(parent SpanContext, name string, attrs ...string) Span {
	return defaultTracer.StartSpanCtx(parent, name, attrs...)
}

// SetClock replaces the tracer's wall clock for epoch and span timestamps
// (nil restores time.Now). Set it before Enable: the epoch is read from
// the clock at enable time.
func (t *Tracer) SetClock(now func() time.Time) {
	if now == nil {
		t.clock.Store(nil)
		return
	}
	t.clock.Store(&now)
}

// SetProcess names the process in WriteJSONL's meta record, so merged
// multi-process traces label each timeline (e.g. "tinyleo-sat-3").
func (t *Tracer) SetProcess(name string) {
	t.mu.Lock()
	t.proc = name
	t.mu.Unlock()
}

// Process returns the name set by SetProcess.
func (t *Tracer) Process() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.proc
}

// SeedIDs makes span/trace ID generation a pure function of seed and
// allocation order (campaign determinism). Resets the sequence; sticky
// across Enable.
func (t *Tracer) SeedIDs(seed uint64) {
	t.mu.Lock()
	t.seeded = true
	t.mu.Unlock()
	t.idSeed.Store(mix64(seed))
	t.idSeq.Store(0)
}

func (t *Tracer) now() time.Time {
	if p := t.clock.Load(); p != nil {
		return (*p)()
	}
	return time.Now()
}

// Enable (re)enables the tracer, allocating a ring of the given capacity
// (0 = DefaultTraceCapacity). Re-enabling resets the ring and epoch.
func (t *Tracer) Enable(capacity int) {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	epoch := t.now()
	t.mu.Lock()
	t.buf = make([]record, capacity)
	t.seq = 0
	t.epoch = epoch
	if !t.seeded {
		t.idSeed.Store(mix64(uint64(epoch.UnixNano())))
		t.idSeq.Store(0)
	}
	t.mu.Unlock()
	t.on.Store(true)
}

// Enabled reports whether spans and events are recorded.
func (t *Tracer) Enabled() bool { return t.on.Load() }

// Disable stops recording; the ring stays readable.
func (t *Tracer) Disable() { t.on.Store(false) }

// EpochUnixMicros returns the tracer epoch (the zero of Event.StartUS) in
// absolute Unix microseconds.
func (t *Tracer) EpochUnixMicros() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch.UnixMicro()
}

// Span is an in-flight trace span. The zero Span (from a disabled tracer)
// is inert: End() is a nil check, Context() is zero.
type Span struct {
	t      *Tracer
	name   string
	attrs  []string
	start  time.Time
	sc     SpanContext
	parent SpanID
}

// StartSpan opens a root span; attrs are key/value pairs attached on End.
func (t *Tracer) StartSpan(name string, attrs ...string) Span {
	if !t.on.Load() {
		return Span{}
	}
	return t.startSpanCtx(SpanContext{}, name, attrs)
}

// StartSpanCtx opens a span continuing parent's trace: same TraceID, a
// fresh SpanID, parent recorded as the causal edge. A zero parent opens a
// new root with a fresh TraceID. Propagate Span.Context() (in-process, or
// over the southbound wire) to grow the tree across goroutines and
// processes.
func (t *Tracer) StartSpanCtx(parent SpanContext, name string, attrs ...string) Span {
	if !t.on.Load() {
		return Span{}
	}
	return t.startSpanCtx(parent, name, attrs)
}

// startSpanCtx is the enabled slow path, split out so the disabled guard
// above stays within the inlining budget (hot paths call StartSpanCtx
// unconditionally and rely on the disabled path costing one atomic load).
func (t *Tracer) startSpanCtx(parent SpanContext, name string, attrs []string) Span {
	s := Span{t: t, name: name, attrs: attrs, start: t.now()}
	if parent.TraceID.IsZero() {
		s.sc = SpanContext{TraceID: t.newTraceID(), SpanID: t.newSpanID()}
	} else {
		s.sc = SpanContext{TraceID: parent.TraceID, SpanID: t.newSpanID()}
		s.parent = parent.SpanID
	}
	return s
}

// Context returns the span's propagatable identity (zero when inert).
func (s Span) Context() SpanContext { return s.sc }

// End completes the span and commits it to the ring.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.commit(record{
		name: s.name, durUS: s.t.now().Sub(s.start).Microseconds(),
		sc: s.sc, parent: s.parent, attrs: attrMap(s.attrs),
	}, s.start)
}

// Attr appends a key/value pair to an in-flight span (no-op when inert).
func (s *Span) Attr(k, v string) {
	if s.t != nil {
		s.attrs = append(s.attrs, k, v)
	}
}

// record is one ring slot: an Event before its identifiers are rendered as
// hex and its sequence number (implied by the slot's position) filled in.
type record struct {
	name           string
	startUS, durUS int64
	sc             SpanContext
	parent         SpanID
	attrs          map[string]string
	instant        bool
}

// Emit records an instant event at the tracer's current time; attrs are
// key/value pairs. No-op when disabled. Callers on hot paths guard the
// call (and the formatting of its arguments) behind Enabled().
func (t *Tracer) Emit(name string, attrs ...string) {
	if !t.on.Load() {
		return
	}
	t.commit(record{name: name, attrs: attrMap(attrs), instant: true}, t.now())
}

// AttrString renders attrs as "k=v k=v" in key order — the deterministic
// form the canonical trace, the inspector and `tinyleo-ctl top` print.
func AttrString(attrs map[string]string) string {
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(k + "=" + attrs[k])
	}
	return sb.String()
}

func attrMap(attrs []string) map[string]string {
	if len(attrs) < 2 {
		return nil
	}
	m := make(map[string]string, len(attrs)/2)
	for i := 0; i+1 < len(attrs); i += 2 {
		m[attrs[i]] = attrs[i+1]
	}
	return m
}

// commit stamps r with its epoch-relative start and stores it in the ring.
func (t *Tracer) commit(r record, start time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.buf) == 0 {
		return
	}
	r.startUS = start.Sub(t.epoch).Microseconds()
	t.buf[t.seq%uint64(len(t.buf))] = r
	t.seq++
}

// Events returns the ring contents (spans and instant events)
// oldest-first.
func (t *Tracer) Events() []Event { return t.EventsSince(0) }

// EventsSince returns the ring contents with Seq > since, oldest-first.
// Records already overwritten by wrap-around are gone regardless of the
// cursor.
func (t *Tracer) EventsSince(since uint64) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	if since >= t.seq {
		return nil
	}
	// The ring holds the newest min(seq, capacity) records; skip those at
	// or before the cursor.
	first := max(since, t.seq-min(t.seq, uint64(len(t.buf)))) + 1
	out := make([]Event, 0, t.seq-first+1)
	for seq := first; seq <= t.seq; seq++ {
		r := &t.buf[(seq-1)%uint64(len(t.buf))]
		ev := Event{
			Name: r.name, StartUS: r.startUS, DurUS: r.durUS,
			Attrs: r.attrs, Seq: seq, Instant: r.instant,
		}
		if !r.sc.IsZero() {
			ev.Trace = r.sc.TraceID.String()
			ev.Span = r.sc.SpanID.String()
			if !r.parent.IsZero() {
				ev.Parent = r.parent.String()
			}
		}
		out = append(out, ev)
	}
	return out
}

// Dropped returns how many records were overwritten by ring wrap-around.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.droppedLocked()
}

func (t *Tracer) droppedLocked() int64 {
	return int64(t.seq - min(t.seq, uint64(len(t.buf))))
}

// NowUS returns the tracer's current time in microseconds since its
// epoch — the time base of Event.StartUS.
func (t *Tracer) NowUS() int64 {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	return now.Sub(t.epoch).Microseconds()
}

// WriteJSONL writes one JSON object per record, oldest-first, preceded by
// a MetaEventName record carrying the process name, the absolute epoch
// (what tracemerge needs to align dumps from different processes) and the
// overwritten-record count.
func (t *Tracer) WriteJSONL(w io.Writer) error { return t.WriteSince(w, 0) }

// WriteSince is WriteJSONL restricted to records with Seq > since — the
// /trace?since=<seq> incremental poll body.
func (t *Tracer) WriteSince(w io.Writer, since uint64) error {
	t.mu.Lock()
	meta := MetaEvent(t.proc, t.epoch.UnixMicro(), t.droppedLocked())
	t.mu.Unlock()
	enc := json.NewEncoder(w)
	if err := enc.Encode(meta); err != nil {
		return err
	}
	for _, ev := range t.EventsSince(since) {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}
