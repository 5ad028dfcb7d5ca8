// Command tinyleo-sat is a satellite agent: it registers with tinyleo-ctl
// over the southbound API, prints and acknowledges every topology command,
// and can inject a synthetic ISL failure report to exercise the repair
// loop (§4.2's "repairing unpredictable failures"). The controller
// enforces each control slot as one slot-delta batch per changed
// satellite, and re-syncs an agent that (re)connects with a full snapshot
// of its desired peer set; the agent applies both to the peer set it holds
// and prints that set. Peers are satellite numbers of the controller's
// testbed, so -fail-peer takes one from the printed list. When the
// connection drops the agent re-dials with backoff until the controller
// takes it back.
//
//	tinyleo-sat -controller 127.0.0.1:7601 -id 0 -fail-peer P -fail-after 2s
//
// Telemetry: -metrics-addr serves live Prometheus text on /metrics (plus
// /metrics.json, /healthz, /trace) for the duration of the run;
// -record-out writes the process's one record file on exit — its spans,
// events and SLO status — which both tinyleo-ctl inspect and tinyleo-ctl
// trace read. It also flushes on SIGINT/SIGTERM, so an interrupted run
// still yields a usable postmortem.
//
//	tinyleo-sat -controller 127.0.0.1:7601 -id 3 \
//	    -metrics-addr 127.0.0.1:9103 -record-out sat3-flight.jsonl.gz
//
// Fleet telemetry: unless -fleet-interval is 0, the agent pushes the rows
// of its /metrics.json that changed, once per interval, to the controller
// over the southbound session, feeding the controller's fleet rollup (its
// /metrics.json, read by `tinyleo-ctl top`).
//
// Commands carry the controller's trace context over the wire; the agent
// records each one's install as a span continuing that trace, so
// `tinyleo-ctl trace` can merge the controller's and agents' recordings
// into one cross-process timeline. -pprof serves net/http/pprof under
// /debug/pprof/ on the -metrics-addr listener.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/obs/fleet"
	"repro/internal/southbound"
)

func main() {
	addr := flag.String("controller", "127.0.0.1:7601", "controller address")
	id := flag.Uint("id", 0, "satellite ID")
	failPeer := flag.Int("fail-peer", -1, "report an ISL failure toward this peer (-1 = never)")
	failAfter := flag.Duration("fail-after", 2*time.Second, "when to report the failure")
	runFor := flag.Duration("run-for", 10*time.Second, "how long to stay up")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz, /trace on this address (empty = telemetry off)")
	recordOut := flag.String("record-out", "", "write a flight recording to this file on exit (.gz = gzip)")
	pprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on -metrics-addr")
	fleetInterval := flag.Duration("fleet-interval", time.Second, "push fleet telemetry reports to the controller at this interval (0 = off)")
	flag.Parse()

	defer cli.Flush()
	cli.TrapSignals()

	cli.Telemetry{
		Process:     fmt.Sprintf("tinyleo-sat-%d", *id),
		MetricsAddr: *metricsAddr, RecordOut: *recordOut, Pprof: *pprof,
	}.Start()
	if *fleetInterval > 0 {
		// Fleet reporting snapshots the default registry, so it must record.
		obs.Enable()
	}

	span := obs.StartSpan("sat.session", "id", fmt.Sprint(*id))
	agent, err := southbound.DialAgent(*addr, uint32(*id), 10*time.Second)
	if err != nil {
		cli.Fatalf("tinyleo-sat: %v\n", err)
	}
	defer agent.Close()
	defer span.End()
	fmt.Printf("sat %d registered with %s\n", *id, *addr)

	if *fleetInterval > 0 {
		reporter := fleet.NewReporter(fleet.NewEncoder(obs.Default()), agent.SendTelemetry)
		reporter.Run(*fleetInterval)
		// Stop flushes one final report, so the controller's rollup catches
		// the last deltas even on SIGINT.
		cli.AtExit(reporter.Stop)
		defer reporter.Stop()
	}

	// Every command is a slot delta or a snapshot of the satellite's ISL
	// peers; its install is a span continuing the command's trace, so the
	// merged timeline shows emit → send → apply → install end to end.
	var applied southbound.PeerSet // the ISL peers the controller has commanded
	agent.OnCommand = func(m *southbound.Message) {
		sp := obs.StartSpanCtx(m.Trace, "dataplane.install",
			"sat", fmt.Sprint(*id), "seq", fmt.Sprint(m.Seq), "type", m.Type.String())
		defer sp.End()
		if err := applied.Apply(m); err != nil {
			fmt.Fprintf(os.Stderr, "tinyleo-sat: %s: %v\n", m.Type, err)
			return
		}
		fmt.Printf("sat %d: %s applied, ISL peers %v (seq %d)\n", *id, m.Type, applied.Peers(), m.Seq)
	}

	if *failPeer >= 0 {
		time.AfterFunc(*failAfter, func() {
			fmt.Printf("sat %d: reporting ISL failure toward %d\n", *id, *failPeer)
			if err := agent.ReportFailure(uint32(*failPeer)); err != nil {
				fmt.Fprintf(os.Stderr, "tinyleo-sat: report: %v\n", err)
			}
		})
	}
	time.Sleep(*runFor)
}
