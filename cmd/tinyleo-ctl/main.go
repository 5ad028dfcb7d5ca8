// Command tinyleo-ctl is the terrestrial TinyLEO controller: it serves
// the southbound API over TCP, flies the system under test
// (chaos.NewTestbed, -dt its slot length), pushes its ISL configuration to
// the connected satellite agents every control slot, and repairs reported
// failures (§4.2, §5). Agent k plays the k-th satellite of the slot-0
// network in ascending order, and the mapping is printed once.
//
// The control loop has one path: slot 0 pushes the testbed's snapshot,
// each later slot the diff of one Testbed.Advance (a warm mpc.DeltaCompile,
// byte-identical to a cold Compile), as one slot-delta batch per changed
// satellite; an agent that (re)connects or loses a command is re-synced
// with a full snapshot of its desired peer set.
//
// Run one tinyleo-ctl and any number of tinyleo-sat agents against it:
//
//	tinyleo-ctl -listen 127.0.0.1:7601 -agents 8 -slots 4 -dt 300
//
// Telemetry: -metrics-addr serves live Prometheus text on /metrics —
// merging the process-wide registry (MPC compile/repair series) with the
// southbound controller's registry (per-type message counters, connected
// agents, ack RTT) — plus /metrics.json, /healthz, /trace. -record-out
// writes the process's one record file on exit: the tracer's ring (spans
// and typed events on one clock), the per-slot compiled topologies and
// the SLO status. -slo overrides the objective thresholds; with
// -metrics-addr the live SLO status is also served on /slo. Output files
// flush on SIGINT/SIGTERM too.
//
//	tinyleo-ctl -listen 127.0.0.1:7601 -agents 8 -metrics-addr 127.0.0.1:9100 \
//	    -record-out flight.jsonl.gz -slo 'availability>=0.95,deficit_ratio<=0.1'
//
// Postmortems: the inspect subcommand renders a recording into per-slot
// topology diffs, reconstructed failure→repair sequences, and SLO breach
// context:
//
//	tinyleo-ctl inspect -in flight.jsonl.gz
//	tinyleo-ctl inspect -in flight.jsonl.gz -events -max-links 16
//
// Distributed tracing: with -record-out on the controller and every
// agent, the trace subcommand merges the per-process recordings — the
// same files inspect reads — into one timeline of spans and events,
// correcting clock skew from the send→ack brackets, and renders it as a
// Chrome trace (chrome://tracing, Perfetto) or the deterministic
// canonical text form:
//
//	tinyleo-ctl trace -o merged.json flight.jsonl.gz sat3.jsonl.gz sat4.jsonl.gz
//	tinyleo-ctl trace -canonical flight.jsonl.gz sat3.jsonl.gz sat4.jsonl.gz
//
// Fleet telemetry: agents running with -fleet-interval push the changed
// rows of their /metrics.json over the southbound session; the controller
// aggregates them into a rollup registry, per-agent health included
// (tinyleo_fleet_agent_state, _silence_seconds, _gaps_total, labeled
// agent=<id>), served on /metrics and /metrics.json with the rest. The
// top subcommand renders the live constellation health view from
// /metrics.json, and -metrics-out writes that same document to a file on
// exit, the per-run artifact:
//
//	tinyleo-ctl top -addr 127.0.0.1:9100
//	tinyleo-ctl -agents 3 -metrics-out ctl-metrics.json
//
// -pprof additionally serves net/http/pprof profiles (CPU, heap, mutex,
// block) under /debug/pprof/ on the -metrics-addr listener.
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/cli"
	"repro/internal/mpc"
	"repro/internal/obs"
	"repro/internal/obs/fleet"
	"repro/internal/obs/flightrec"
	"repro/internal/obs/tracemerge"
	"repro/internal/southbound"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "inspect":
			runInspect(os.Args[2:])
			return
		case "trace":
			runTraceMerge(os.Args[2:])
			return
		case "top":
			runTop(os.Args[2:])
			return
		}
	}
	runController()
}

// runTraceMerge implements `tinyleo-ctl trace`: merge per-process record
// files (controller + agents: -record-out recordings, /trace dumps) into
// one skew-corrected timeline.
func runTraceMerge(args []string) {
	fs := flag.NewFlagSet("tinyleo-ctl trace", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	canonical := fs.Bool("canonical", false, "emit the deterministic canonical text form instead of a Chrome trace")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: tinyleo-ctl trace [-o merged.json] [-canonical] recording.jsonl[.gz]...")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() == 0 {
		fs.Usage()
		os.Exit(2)
	}
	var dumps []*flightrec.Recording
	for _, path := range fs.Args() {
		d, err := flightrec.ReadRecordingFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tinyleo-ctl trace: %s: %v\n", path, err)
			os.Exit(1)
		}
		dumps = append(dumps, d)
	}
	m := tracemerge.Merge(dumps...)
	anchor, offsets := m.Offsets()
	fmt.Fprintf(os.Stderr, "merged %d dumps, %d spans, %d events; clock anchor %q\n",
		len(dumps), len(m.Spans), len(m.Events), anchor)
	procs := make([]string, 0, len(offsets))
	for proc := range offsets {
		if proc != anchor {
			procs = append(procs, proc)
		}
	}
	sort.Strings(procs)
	for _, proc := range procs {
		fmt.Fprintf(os.Stderr, "  %s: %+.3fms skew\n", proc, float64(offsets[proc])/1000)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tinyleo-ctl trace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	var err error
	if *canonical {
		err = m.WriteCanonical(w)
	} else {
		err = m.WriteChromeTrace(w)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tinyleo-ctl trace: %v\n", err)
		os.Exit(1)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
}

// runInspect implements `tinyleo-ctl inspect`: load a recording, print
// the postmortem report.
func runInspect(args []string) {
	fs := flag.NewFlagSet("tinyleo-ctl inspect", flag.ExitOnError)
	in := fs.String("in", "", "flight recording to inspect (required; .gz sniffed automatically)")
	events := fs.Bool("events", false, "append the full event log to the report")
	maxLinks := fs.Int("max-links", 8, "ISL diff entries to print per slot before eliding")
	ctx := fs.Int("context", 6, "events of context to print before each SLO breach")
	fs.Parse(args)
	if *in == "" {
		fmt.Fprintln(os.Stderr, "tinyleo-ctl inspect: -in <recording> is required")
		fs.Usage()
		os.Exit(2)
	}
	rec, err := flightrec.ReadRecordingFile(*in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tinyleo-ctl inspect: %v\n", err)
		os.Exit(1)
	}
	opt := flightrec.InspectOptions{MaxLinks: *maxLinks, Context: *ctx, Events: *events}
	if err := rec.WriteReport(os.Stdout, opt); err != nil {
		fmt.Fprintf(os.Stderr, "tinyleo-ctl inspect: %v\n", err)
		os.Exit(1)
	}
}

func runController() {
	listen := flag.String("listen", "127.0.0.1:7601", "southbound listen address")
	agents := flag.Int("agents", 4, "number of satellite agents to wait for")
	slots := flag.Int("slots", 4, "control slots to run")
	dt := flag.Float64("dt", 300, "control slot duration (seconds of orbital time)")
	wait := flag.Duration("wait", 30*time.Second, "how long to wait for agents")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz, /trace, /slo on this address (empty = telemetry off)")
	recordOut := flag.String("record-out", "", "write a flight recording to this file on exit (.gz = gzip)")
	sloSpec := flag.String("slo", "", "SLO rule spec, e.g. 'availability>=0.95,repair_p99<=0.2' (empty = defaults)")
	pprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on -metrics-addr")
	fleetLag := flag.Duration("fleet-lag", fleet.DefaultLagAfter, "mark an agent lagging after this long without a fleet report")
	fleetSilent := flag.Duration("fleet-silent", fleet.DefaultSilentAfter, "mark an agent silent after this long without a fleet report")
	metricsOut := flag.String("metrics-out", "", "write the final /metrics.json document (fleet rollup included) to this file on exit")
	hold := flag.Duration("hold", 0, "stay alive this long after the last slot (lets the fleet staleness ladder observe late faults)")
	flag.Parse()

	defer cli.Flush()
	cli.TrapSignals()

	ctl, err := southbound.ListenController(*listen)
	if err != nil {
		cli.Fatalf("tinyleo-ctl: %v\n", err)
	}
	defer ctl.Close()
	// The delta enforcer chains onto OnRegister/OnCommandFailed, so it is
	// installed before any agent can connect: a reconnect at any point
	// forces that agent's next push to be a full-snapshot re-sync.
	enf := southbound.NewDeltaEnforcer(ctl)

	// Fleet aggregation is always on: agents that never push telemetry
	// cost nothing, and the rollup registry is what `tinyleo-ctl top`, the
	// SLO engine and -metrics-out read.
	agg := fleet.NewAggregator(fleet.Options{LagAfter: *fleetLag, SilentAfter: *fleetSilent})
	ctl.OnTelemetry = func(satID uint32, payload []byte) {
		if err := agg.HandleReport(satID, payload); err != nil {
			fmt.Fprintf(os.Stderr, "tinyleo-ctl: %v\n", err)
		}
	}
	fleetTick := time.NewTicker(time.Second)
	defer fleetTick.Stop()
	// Runs for the process lifetime: Stop does not close fleetTick.C.
	go func() {
		for range fleetTick.C {
			agg.Tick()
		}
	}()
	regs := []*obs.Registry{obs.Default(), ctl.Metrics(), agg.Registry()}
	if *metricsOut != "" {
		out := *metricsOut
		cli.AtExit(func() {
			if err := writeMetricsFile(out, regs...); err != nil {
				fmt.Fprintf(os.Stderr, "tinyleo-ctl: -metrics-out: %v\n", err)
				return
			}
			fmt.Printf("metrics: wrote %s\n", out)
		})
	}
	cli.Telemetry{
		Process: "tinyleo-ctl", MetricsAddr: *metricsAddr, RecordOut: *recordOut, SLO: *sloSpec, Pprof: *pprof,
	}.Start(regs...)
	fmt.Printf(cli.AnnounceController, ctl.Addr(), *agents)
	if err := ctl.WaitForAgents(*agents, *wait); err != nil {
		cli.Fatalf("tinyleo-ctl: %v\n", err)
	}
	fmt.Printf(cli.AnnounceRegistered, ctl.AgentCount())

	// Agents past the last network satellite play none; commands name
	// peers by satellite number.
	tb, err := chaos.NewTestbed(chaos.TestbedConfig{SlotSeconds: *dt})
	if err != nil {
		cli.Fatalf("tinyleo-ctl: %v\n", err)
	}
	sats := slices.Sorted(maps.Keys(tb.Net.Sats))
	agentOf := map[int]uint32{}
	var plays []string
	for k := 0; k < *agents && k < len(sats); k++ {
		agentOf[sats[k]] = uint32(k)
		plays = append(plays, fmt.Sprintf("%d→sat %d", k, sats[k]))
	}
	fmt.Printf("agents play satellites: %s\n", strings.Join(plays, ", "))
	if *agents > len(sats) {
		fmt.Printf("agents %d…%d play no satellite\n", len(sats), *agents-1)
	}

	// Failure hook: tear the reported link down on the reporter, through the
	// enforcer so its desired set and the agent's applied set stay equal.
	ctl.OnFailure = func(report *southbound.Message) []*southbound.Message {
		fmt.Printf("failure report from sat %d (peer %d); repairing\n", report.SatID, report.Peer)
		if err := enf.Push(report.SatID, nil, []uint32{report.Peer}, time.Now(), obs.SpanContext{}); err != nil {
			fmt.Fprintf(os.Stderr, "tinyleo-ctl: repair push to sat %d: %v\n", report.SatID, err)
		}
		return nil
	}

	for s := 0; s < *slots; s++ {
		t := float64(s) * tb.Cfg.SlotSeconds
		var added, removed []mpc.Link
		if s == 0 {
			added, removed = mpc.DiffLinks(nil, tb.Snap)
		} else {
			added, removed = tb.Advance(t)
		}
		fmt.Printf("slot %d (t=%.0fs): %d inter-cell ISLs, %d ring ISLs, %d changes, enforcement %.2f\n",
			s, t, len(tb.Snap.InterLinks), len(tb.Snap.RingLinks), len(added)+len(removed),
			tb.Ctl.EnforcementRatio(tb.Snap))
		// Push each satellite's batch to the agent that plays it; a
		// satellite with no agent is skipped. Every command in this slot
		// descends from one mpc.emit root span, so the merged cross-process
		// trace shows the whole enforcement round as a single causal tree.
		emit := obs.StartSpan("mpc.emit",
			"slot", fmt.Sprint(s), "t", fmt.Sprintf("%.0f", t))
		emitted := time.Now()
		pushed := 0
		for _, b := range mpc.BatchBySatellite(added, removed) {
			agent, ok := agentOf[b.Sat]
			if ok && enf.Push(agent, b.Add, b.Del, emitted, emit.Context()) == nil {
				pushed++
			}
		}
		// Agents that (re)registered get their snapshot even with no change.
		pushed += enf.Resync(emitted, emit.Context())
		emit.End()
		fmt.Printf("  pushed %d commands to connected agents\n", pushed)
		time.Sleep(200 * time.Millisecond)
	}
	fmt.Printf("totals: %d southbound messages\n", ctl.TotalMessages())
	if *hold > 0 {
		// Keep the southbound and telemetry surfaces up so the staleness
		// ladder can walk killed agents to silent before the exit document.
		fmt.Printf("holding for %s\n", *hold)
		time.Sleep(*hold)
	}
}
