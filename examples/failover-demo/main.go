// Failover demo: shows the two recovery paths of §4.3 side by side on the
// one system under test (chaos.NewTestbed), then exercises the orbital MPC
// and the real southbound TCP repair loop.
//
//  1. Fig. 19d, the same block `tinyleo-bench -run fig19bcd` prints: when
//     the flow's first-hop ISL dies mid-flow, TinyLEO's data plane reroutes
//     locally (anycast + gateway ring) in milliseconds, while the
//     routing-table baseline (internal/baseline, plugged into the
//     network's next-hop seam) buffers and waits ~84 ms for the remote
//     control plane (Figure 17d).
//
//  2. The orbital MPC compiles the testbed's mesh intent for a second
//     slot and repairs a failed inter-cell ISL (§4.2).
//
//  3. The southbound session rides out trouble over real TCP: first
//     contact is a snapshot, a severed transport heals through the
//     agent's exponential-backoff reconnect and a snapshot re-sync, and a
//     failure report is answered with a slot-delta repair.
//
//     go run ./examples/failover-demo
//
// With -metrics-addr every stage is recorded on the runtime telemetry
// registry and served as Prometheus text — non-zero MPC compile-latency,
// southbound message, and data-plane failover series on one /metrics
// endpoint — for -hold after the stages finish:
//
//	go run ./examples/failover-demo -metrics-addr 127.0.0.1:9100 -hold 1m
//
// With -record-out the whole run is captured by the constellation flight
// recorder — spans and typed failure/repair events on one clock, per-slot
// compiled topologies, SLO status — and written at exit as the one record
// file that `tinyleo-ctl inspect` renders into a postmortem and
// `tinyleo-ctl trace` into a timeline; -slo overrides the objective
// thresholds (live status on /slo when -metrics-addr is set too):
//
//	go run ./examples/failover-demo -record-out flight.jsonl.gz \
//	    -slo 'availability>=0.99,deficit_ratio<=0.01'
//	go run ./cmd/tinyleo-ctl inspect -in flight.jsonl.gz
//	go run ./cmd/tinyleo-ctl trace -canonical flight.jsonl.gz
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/southbound"
)

func main() {
	metricsAddr := flag.String("metrics-addr", "",
		"serve /metrics, /healthz, /trace, /slo on this address (empty = telemetry off)")
	hold := flag.Duration("hold", 5*time.Second,
		"keep the telemetry endpoint up this long after the demo stages finish")
	recordOut := flag.String("record-out", "",
		"write a flight recording to this file when done (.gz = gzip)")
	sloSpec := flag.String("slo", "",
		"SLO rule spec, e.g. 'availability>=0.95,repair_p99<=0.2' (empty = defaults)")
	flag.Parse()

	defer cli.Flush()
	cli.TrapSignals()

	// The repair loop's controller is created first, so that its registry is
	// served, and read by the SLO engine, beside the process-wide one.
	ctl, err := southbound.ListenController("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ctl.Close()
	served := cli.Telemetry{
		Process: "failover-demo", MetricsAddr: *metricsAddr, RecordOut: *recordOut, SLO: *sloSpec,
	}.Start(obs.Default(), ctl.Metrics())

	fig19d, err := experiments.Figure19d(experiments.Small)
	if err != nil {
		log.Fatal(err)
	}
	fig19d.Render(os.Stdout)
	fmt.Println()
	mpcCompileRepair()
	southboundSession(ctl)
	if *recordOut != "" {
		fmt.Printf("== flight recording ==\nwritten to %s at exit; inspect with: go run ./cmd/tinyleo-ctl inspect -in %s\n",
			*recordOut, *recordOut)
	}
	if served != "" {
		fmt.Printf("== telemetry ==\nserving http://%s/metrics (SLO status on /slo) for %v\n", served, *hold)
		time.Sleep(*hold)
	}
}

// mpcCompileRepair flies the system under test (chaos.NewTestbed at its
// defaults: 256 satellites, 10° cells): slot 0 is the testbed's compile,
// slot 1 its Advance, and the repair replaces the first inter-cell ISL
// after the paper's 83.8 ms control round trip, so the MPC's compile/repair
// telemetry series move.
func mpcCompileRepair() {
	fmt.Println("== orbital MPC compile + repair ==")
	tb, err := chaos.NewTestbed(chaos.TestbedConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("slot 0: %d inter-cell ISLs, %d ring ISLs, enforcement %.2f\n",
		len(tb.Snap.InterLinks), len(tb.Snap.RingLinks), tb.Ctl.EnforcementRatio(tb.Snap))
	added, removed := tb.Advance(tb.Cfg.SlotSeconds)
	fmt.Printf("slot 1: %d inter-cell ISLs, %d ring ISLs, %d changes, enforcement %.2f\n",
		len(tb.Snap.InterLinks), len(tb.Snap.RingLinks), len(added)+len(removed),
		tb.Ctl.EnforcementRatio(tb.Snap))
	repaired, stats := tb.Ctl.Repair(tb.Snap, tb.Snap.InterLinks[:1], nil, 83800*time.Microsecond)
	fmt.Printf("repair: %d new ISLs, %d messages, %v end-to-end (enforcement %.2f)\n",
		len(stats.NewLinks), stats.Messages, stats.Total().Round(time.Millisecond),
		tb.Ctl.EnforcementRatio(repaired))
}

// southboundSession drives one agent through the southbound session
// against main's controller (whose message counters main serves), every
// ISL command framed by one DeltaEnforcer: first contact is a snapshot, a
// severed transport heals through the agent's backoff reconnect and is
// answered with a snapshot re-sync instead of trusting deltas to compose,
// and a failure report is repaired with one slot-delta.
func southboundSession(ctl *southbound.Controller) {
	fmt.Println("== southbound session: re-sync, repair ==")
	enf := southbound.NewDeltaEnforcer(ctl)
	push := func(add, del []uint32) {
		if err := enf.Push(9, add, del, time.Now(), obs.SpanContext{}); err != nil {
			log.Fatal(err)
		}
	}
	ctl.OnFailure = func(report *southbound.Message) []*southbound.Message {
		// Repair policy: tear down the dead ISL, bring up a spare.
		push([]uint32{report.Peer + 1}, []uint32{report.Peer})
		return nil
	}
	agent, err := southbound.DialAgentOptions(ctl.Addr(), 9, 2*time.Second,
		southbound.AgentOptions{
			BackoffBase: 10 * time.Millisecond,
			BackoffMax:  200 * time.Millisecond,
		})
	if err != nil {
		log.Fatal(err)
	}
	defer agent.Close()
	var applied southbound.PeerSet
	commands := make(chan *southbound.Message, 4)
	agent.OnCommand = func(m *southbound.Message) {
		if err := applied.Apply(m); err != nil {
			log.Fatal(err)
		}
		commands <- m.Clone() // m is borrowed for the call; the queue keeps a copy
	}
	// next returns the next command the agent applied.
	next := func(stage string) *southbound.Message {
		select {
		case m := <-commands:
			return m
		case <-time.After(2 * time.Second):
			log.Fatalf("%s: command never applied", stage)
			return nil
		}
	}

	push([]uint32{17, 18}, nil)
	m := next("first contact")
	fmt.Printf("first contact: synced by a %s, ISLs %v\n", m.Type, applied.Peers())

	regs := ctl.Registrations(9)
	agent.DropConn()
	for deadline := time.Now().Add(2 * time.Second); ctl.Registrations(9) == regs; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			log.Fatal("agent never re-registered after DropConn")
		}
	}
	push(nil, []uint32{17})
	m = next("post-reconnect")
	fmt.Printf("transport drop: healed after %d reconnect(s), re-synced by a %s, ISLs %v\n",
		agent.Reconnects(), m.Type, applied.Peers())

	start := time.Now()
	if err := agent.ReportFailure(18); err != nil {
		log.Fatal(err)
	}
	m = next("repair")
	fmt.Printf("failure report: repaired by one %s after %v, agent applied %v, enforcer desires %v\n",
		m.Type, time.Since(start).Round(time.Microsecond), applied.Peers(), enf.Desired(9))
}
