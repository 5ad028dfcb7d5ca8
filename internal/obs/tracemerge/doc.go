// Package tracemerge assembles per-process record files (-record-out
// recordings, /trace dumps, bench/'s span dumps) into one cross-process
// timeline. Each file carries its own tracer epoch and clock; tracemerge
// aligns them with an NTP-style skew correction derived from the
// southbound command spans themselves (sb.send/sb.ack on the controller
// bracket agent.apply on the agent), then renders a single Chrome
// trace_event file — per-command causal trees spanning processes, with
// flow arrows across the boundary and a marker per instant event — or a
// canonical text form stable enough to diff run-to-run.
//
// # Surfaces
//
// The files are read with flightrec.ReadRecordingFile, the one reader of
// the one record format. Merge aligns any number of recordings into a
// Merged timeline, carrying each process's instant events through the same
// correction as its spans; Merged.Offsets reports the chosen clock anchor
// and the per-process skew estimates. Merged.WriteChromeTrace emits the
// chrome://tracing / Perfetto form; Merged.WriteCanonical emits the
// deterministic text form (chaos campaigns with a seeded virtual-clock
// tracer produce byte-identical canonical merges run-to-run).
//
// `tinyleo-ctl trace` is the CLI over exactly this API.
package tracemerge
