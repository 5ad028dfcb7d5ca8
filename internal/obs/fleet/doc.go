// Package fleet is TinyLEO's constellation-wide telemetry plane: agents
// push the rows of their /metrics.json document that changed — obs.Doc,
// absolute values plus a report sequence number — to the controller over
// the southbound session as Telemetry messages; the controller-side
// Aggregator folds every agent's rows into one rollup registry keyed by
// series with per-agent labels and tracks report staleness through
// healthy → lagging → silent states in that same registry: the fleet's
// one document, which the controller serves on /metrics.json.
//
// Design constraints, in order:
//
//  1. Coalescing: increments between flushes collapse into one row, so
//     the wire cost is bounded by flush rate × changed series, never by
//     event rate. A report with no changed series is still sent — an
//     empty report is the liveness heartbeat staleness tracking feeds on.
//  2. No session: a row is the series' whole identity and its absolute
//     value, so the aggregator needs nothing but the agent's previous
//     row to fold it (row − last). A re-shipped or duplicated row folds
//     to nothing, a lost report is healed by the next one that touches
//     the series, a count that went backwards is a restarted agent and
//     contributes its full new value, and Encoder.Reset just forgets what
//     was sent. There is no format of the fleet's own to decode: the
//     codec is obs.EncodeDoc / obs.DecodeDoc, the one /metrics.json uses,
//     and everything else here is validation of the decoded document.
//  3. Bounded: a report never exceeds southbound.MaxTelemetryPayload or
//     MaxReportSeries rows; what does not fit rides the next report.
//  4. Determinism: encoding snapshots series in registration order, Tick
//     walks agents in ID order and Totals sorts, so chaos campaigns
//     aggregating over a virtual clock stay byte-reproducible.
//
// # Surfaces
//
// Agent side: NewEncoder wraps a registry, NewReporter flushes encoded
// reports through a send function at a bounded rate (Reporter.Run /
// Reporter.Stop). Controller side: NewAggregator validates and folds
// reports (HandleReport), sweeps staleness (Tick), and exposes the rollup
// (Registry), the agents' own series beside the Metric* series. Readers
// work on its samples, live (obs.Snapshot) or decoded from /metrics.json
// or a -metrics-out file: Summarize condenses them into the accounting
// chaos and testground reports carry, Totals sums the agents' series
// across agents, and the flightrec SLO rules score them by series name.
package fleet
