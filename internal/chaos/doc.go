// Package chaos is TinyLEO's seeded fault-injection campaign engine: it
// composes failure scenarios — ISL loss and flap storms, satellite/agent
// crashes, southbound connection drops, regional demand surges — and
// drives them through the full control loop (MPC repair §4.2 → southbound
// enforcement §5 through tinyleo-ctl's DeltaEnforcer, every round checked
// for agents that diverged from it → data-plane failover §4.3), scoring
// each campaign with the flight recorder's SLO engine.
//
// Failure is the default test mode here: every scenario injects faults
// and asserts the system degrades gracefully (recovery time, delivery
// ratio, enforcement ratio) instead of asserting the happy path.
//
// Determinism contract: a campaign is seeded and runs in lockstep —
// faults are drawn from a single seeded RNG over sorted candidate lists,
// packet timing lives entirely on the netem virtual clock, and the
// southbound reliability layer is driven through an injected clock. The
// canonical report (Report.CanonicalJSON) therefore contains only
// sim-time and logical counters: same seed → same bytes. Wall-clock
// measurements (repair latency) are reported separately and excluded
// from the canonical form.
//
// # Surfaces
//
// NewTestbed builds the system under test — constellation, mesh intent,
// controller, slot-0 snapshot, emulated network — and is the only place
// this repository builds it: the figures of internal/experiments,
// examples/failover-demo, tinyleo-ctl (whose agent k plays the k-th
// satellite of the slot-0 network) and the bench/ ledger run on the same
// Testbed the campaigns do. One step builds a network from a snapshot
// (BuildNetwork) and moves a live one to the next: Testbed.Advance
// compiles a later slot and applies its diff, link delays following the
// clock, and Testbed.Snap is always the current snapshot. Testbed.GatewayOf
// and Testbed.Probe are the injection point and the delivery probe.
//
// Scenarios (one ordered table) and ScenarioByName enumerate the built-in
// fault compositions; Campaign configures one seeded run (scenario,
// seed, testbed size, offered load, optional virtual-clock Tracer) and
// Run executes it, returning a Report whose CanonicalJSON is
// byte-reproducible for a given (seed, scenario). VClock is the
// injectable virtual clock the southbound reliability layer and the
// fleet aggregator run on during a campaign.
//
// The engine is driven by `tinyleo-bench -run chaos`, the one
// virtual-clock campaign runner; internal/testground runs real processes.
package chaos
