// Package flightrec is TinyLEO's constellation flight recorder: typed
// events, a per-slot topology state snapshotter, and a declarative SLO
// engine, serializable as one JSONL "recording" that the postmortem
// inspector (tinyleo-ctl inspect) renders into per-slot diffs and failure
// timelines, and that the trace merger (tinyleo-ctl trace) places on one
// cross-process timeline.
//
// The recorder keeps no event store of its own. Emit writes instant
// events named "component.type" into the process tracer (obs.Trace()), so
// events and spans share one ring, one epoch and one (injectable) clock;
// a recording is that tracer's JSONL followed by the slot snapshots and
// the final SLO status (see ReadRecording for the line schema). Only the
// slot states keep a ring of their own: one is O(constellation) bytes, not
// the ~100 bytes of a span or event, so it cannot share their budget.
//
// The recorder complements the numeric registry in internal/obs: where
// counters answer "how many deficits", the events answer *which* slot,
// *which* cell, and *what happened just before* — the per-snapshot
// reasoning the paper's own evaluation uses (§4.2 topology compilation,
// §4.3 failover, §6 repair timelines).
//
// Hot-path contract: everything is disabled by default. Instrumented
// code guards emission with
//
//	if flightrec.Enabled() {
//	    flightrec.Emit("dataplane", "drop", "sat", id, "reason", reason)
//	}
//
// so the disabled path costs a single atomic load and zero allocations
// (see bench_test.go); attribute formatting only happens once the
// recorder is on. Snapshotting allocates O(snapshot) per control slot,
// never per packet.
package flightrec

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Component names used by the built-in instrumentation: the first half of
// an event's "component.type" name.
const (
	CompMPC        = "mpc"
	CompSouthbound = "southbound"
	CompDataplane  = "dataplane"
	CompCore       = "core"
	CompSLO        = "slo"
	CompChaos      = "chaos"
	CompFleet      = "fleet"
)

// EventName joins a component and an event type into the record name.
func EventName(component, typ string) string { return component + "." + typ }

// SplitEventName splits a "component.type" record name.
func SplitEventName(name string) (component, typ string) {
	component, typ, _ = strings.Cut(name, ".")
	return component, typ
}

// isFailure reports whether ev is one of the injected-failure events the
// failure sequences start from.
func isFailure(ev *obs.Event) bool {
	switch _, typ := SplitEventName(ev.Name); typ {
	case "isl_fail", "sat_fail", "failure_report":
		return ev.Instant
	}
	return false
}

// instants returns the instant events among records (the spans sharing
// the ring are dropped).
func instants(records []obs.Event) []obs.Event {
	var out []obs.Event
	for _, ev := range records {
		if ev.Instant {
			out = append(out, ev)
		}
	}
	return out
}

// RingCapacity sizes the process tracer's ring when the recorder enables
// it: spans and events share it.
const RingCapacity = 16384

// ---- Process-wide default recorder ----

var (
	on                 atomic.Bool
	defaultSnapshotter Snapshotter

	engineMu      sync.RWMutex
	defaultEngine *Engine
)

// Enabled reports whether the process-wide recorder is on. Hot paths
// guard attribute formatting behind it; the disabled cost is one atomic
// load.
func Enabled() bool { return on.Load() }

// Emit records one "component.type" event in the process tracer (no-op
// while the recorder is disabled).
func Emit(component, typ string, attrs ...string) {
	if !on.Load() {
		return
	}
	obs.Trace().Emit(EventName(component, typ), attrs...)
}

// Options parameterizes Enable.
type Options struct {
	// Rules are the SLO rules to evaluate each recorded slot (and on
	// /slo requests). See ParseRules for the spec syntax.
	Rules []Rule
	// Registries are the metric registries the SLO engine reads
	// (default: obs.Default() alone).
	Registries []*obs.Registry
}

// Enable turns on the process-wide flight recorder — events into the
// process tracer (which it (re)enables with RingCapacity, resetting ring
// and epoch), the slot snapshotter, and the SLO engine — and registers
// the /slo telemetry endpoint. It is the switch behind the -record-out
// CLI flags.
func Enable(o Options) {
	obs.EnableTracing(RingCapacity)
	defaultSnapshotter.enable()
	eng := NewEngine(obs.Trace(), o.Registries, o.Rules...)
	engineMu.Lock()
	defaultEngine = eng
	engineMu.Unlock()
	registerHTTP()
	on.Store(true)
}

// Disable stops the process-wide recorder; the tracer keeps running (and
// its ring and the slot ring stay readable).
func Disable() { on.Store(false) }

// DefaultSLOEngine returns the process-wide SLO engine installed by the
// last Enable, or nil.
func DefaultSLOEngine() *Engine {
	engineMu.RLock()
	defer engineMu.RUnlock()
	return defaultEngine
}

// RecordSlot appends one slot state to the process-wide snapshotter and
// evaluates the SLO rules against the post-slot metric state (no-op
// while disabled).
func RecordSlot(st SlotState) {
	if !Enabled() {
		return
	}
	defaultSnapshotter.RecordSlot(st)
	if eng := DefaultSLOEngine(); eng != nil {
		eng.Eval()
	}
}
