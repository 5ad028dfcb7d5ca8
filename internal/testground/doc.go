// Package testground is the real-process campaign runner: it turns a
// declarative test-plan manifest into an orchestrated multi-process
// run of the real binaries and a scored, archivable report — the
// in-tree counterpart of running a TestGround-style testbed against
// the TinyLEO control plane. (Seeded virtual-clock campaigns are
// internal/chaos, driven by tinyleo-bench -run chaos.)
//
// A plan (Manifest, parsed from JSON by Load) declares what to
// launch (agent count, control slots), what to break when (a fault
// schedule), and what "good" means (a flight recorder SLO rule spec).
// RunExec executes it: one real tinyleo-ctl and N real tinyleo-sat
// processes over the real TCP southbound. Startup follows the lines the
// controller prints on stdout (declared in internal/cli): its :0-bound
// southbound and telemetry addresses, which the agents are launched
// with, then "N agents registered", which starts the fault clock.
// Faults are delivered as process signals
// (kill, term, stop, cont) on schedule. Artifacts (the controller's
// exit-time /metrics.json document, one flight recording per process —
// the file both `tinyleo-ctl trace` and `tinyleo-ctl inspect` read — and
// process logs) are collected into a run directory, and the run is
// scored over that metrics document.
//
// The scored RunReport reuses the flight recorder's SLO rules
// (internal/obs/flightrec.Score): they evaluate over the controller's
// series, fleet rollup included, a rule whose series is absent failing;
// its fleet block is fleet.Summarize over the same document, and the
// report records every verdict alongside the executed fault schedule and
// the artifact inventory.
package testground
