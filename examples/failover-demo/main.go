// Failover demo: shows the two recovery paths of §4.3 side by side on an
// emulated network, then exercises the orbital MPC and the real
// southbound TCP repair loop.
//
//  1. TinyLEO's data plane reroutes locally (anycast + gateway ring) in
//     milliseconds when an ISL dies mid-flow.
//
//  2. The routing-table baseline (internal/baseline, plugged into the
//     network's next-hop seam) must buffer and wait ~84 ms for the remote
//     control plane (Figure 17d/19d).
//
//  3. The orbital MPC compiles a chain intent over a Walker
//     constellation and repairs a synthetic ISL failure (§4.2).
//
//  4. The southbound session rides out trouble over real TCP: first
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
	"time"

	tinyleo "repro"

	"repro/internal/baseline"
	"repro/internal/cli"
	"repro/internal/mpc"
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
	ctl, err := tinyleo.ListenSouthbound("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ctl.Close()
	served := cli.Telemetry{
		Process: "failover-demo", MetricsAddr: *metricsAddr, RecordOut: *recordOut, SLO: *sloSpec,
	}.Start(tinyleo.Telemetry(), ctl.Metrics())

	emulatedFailover()
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

// mpcCompileRepair compiles a 4-cell chain intent over a Walker
// constellation for two control slots and repairs a synthetic ISL failure,
// so the MPC's compile/repair telemetry series move.
func mpcCompileRepair() {
	fmt.Println("== orbital MPC compile + repair ==")
	sats := tinyleo.WalkerConfig{
		InclinationDeg: 53, AltitudeKm: 1200, Planes: 16, SatsPerPlane: 16, PhasingF: 1,
	}.Satellites()
	g, err := tinyleo.NewGrid(10)
	if err != nil {
		log.Fatal(err)
	}
	topo := tinyleo.NewTopology(g)
	var cells []int
	for i := 0; i < 4; i++ {
		id := g.CellOf(tinyleo.LatLon{Lat: 5, Lon: float64(-15 + i*10)})
		topo.AddCell(id, 3)
		cells = append(cells, id)
	}
	for i := 1; i < len(cells); i++ {
		topo.Connect(cells[i-1], cells[i], 1)
	}
	ctrl, err := tinyleo.NewController(tinyleo.MPCConfig{Topo: topo, Sats: sats})
	if err != nil {
		log.Fatal(err)
	}
	// The second slot warm-starts from the first (DeltaCompile's output is
	// identical to a cold Compile of the same time).
	var prev *tinyleo.Snapshot
	for slot := 0; slot < 2; slot++ {
		snap := ctrl.DeltaCompile(prev, float64(slot)*300)
		added, removed := mpc.DiffLinks(prev, snap)
		prev = snap
		fmt.Printf("slot %d: %d inter-cell ISLs, %d ring ISLs, %d changes, enforcement %.2f\n",
			slot, len(snap.InterLinks), len(snap.RingLinks), len(added)+len(removed),
			ctrl.EnforcementRatio(snap))
	}
	if len(prev.InterLinks) > 0 {
		repaired, stats := ctrl.Repair(prev, prev.InterLinks[:1], nil, 83800*time.Microsecond)
		fmt.Printf("repair: %d new ISLs, %d messages, %v end-to-end (enforcement %.2f)\n",
			len(stats.NewLinks), stats.Messages, stats.Total().Round(time.Millisecond),
			ctrl.EnforcementRatio(repaired))
	}
}

// emulatedFailover builds a 3-cell chain with two gateways per cell and
// kills the primary ISL mid-flow.
func emulatedFailover() {
	fmt.Println("== emulated data-plane failover ==")
	build := func() *tinyleo.Network {
		n := tinyleo.NewNetwork()
		// cells: 10 (sats 0,1) -> 20 (sats 2,3) -> 30 (sats 4,5)
		for id, cell := range []int{10, 10, 20, 20, 30, 30} {
			n.AddSatellite(id, cell)
		}
		n.Connect(0, 2, 0.005)
		n.Connect(1, 3, 0.005)
		n.Connect(2, 4, 0.005)
		n.Connect(3, 5, 0.005)
		n.Connect(0, 1, 0.001)
		n.Connect(2, 3, 0.001)
		n.Connect(4, 5, 0.001)
		n.SetRing([]int{0, 1})
		n.SetRing([]int{2, 3})
		n.SetRing([]int{4, 5})
		return n
	}

	run := func(name string, legacy bool) {
		n := build()
		var tables *baseline.TableRouter
		if legacy {
			tables = baseline.RouteByTables(n)
			tables.InstallPath([]int{0, 2, 4})
		}
		var deliveries []float64
		n.OnDeliver = func(s *tinyleo.Satellite, p *tinyleo.Packet) {
			deliveries = append(deliveries, n.Sim.Now())
		}
		// Primary ISL 0-2 dies at t=50 ms.
		n.Sim.Schedule(0.050, func() { n.Link(0, 2).Down() })
		if legacy {
			// Remote control plane repairs after the paper's 83.8 ms.
			n.Sim.Schedule(0.050+0.0838, func() {
				tables.InstallPath([]int{0, 1, 3, 5, 4})
				n.FlushBuffers()
			})
		}
		// 10 ms cadence flow for 200 ms.
		for i := 0; i < 20; i++ {
			i := i
			n.Sim.Schedule(float64(i)*0.010, func() {
				if legacy {
					n.Inject(0, baseline.TablePacket(4, nil))
					return
				}
				p, err := tinyleo.NewGeoPacket(0, []int{20, 30}, 1, uint32(i), nil)
				if err != nil {
					log.Fatal(err)
				}
				n.Inject(0, p)
			})
		}
		n.Sim.Run(1)
		gap := 0.0
		for i := 1; i < len(deliveries); i++ {
			if d := deliveries[i] - deliveries[i-1]; d > gap {
				gap = d
			}
		}
		fmt.Printf("%-28s delivered %2d/20, max delivery gap %5.1f ms, failovers=%d\n",
			name, len(deliveries), gap*1e3, n.Sats[0].Failovers)
	}
	run("TinyLEO geo anycast:", false)
	run("legacy routing tables:", true)
}

// southboundSession drives one agent through the southbound session
// against main's controller (whose message counters main serves), every
// ISL command framed by one DeltaEnforcer: first contact is a snapshot, a
// severed transport heals through the agent's backoff reconnect and is
// answered with a snapshot re-sync instead of trusting deltas to compose,
// and a failure report is repaired with one slot-delta.
func southboundSession(ctl *tinyleo.SouthboundController) {
	fmt.Println("== southbound session: re-sync, repair ==")
	enf := southbound.NewDeltaEnforcer(ctl)
	push := func(add, del []uint32) {
		if err := enf.Push(9, add, del, time.Now(), obs.SpanContext{}); err != nil {
			log.Fatal(err)
		}
	}
	ctl.OnFailure = func(report *tinyleo.SouthboundMessage) []*tinyleo.SouthboundMessage {
		// Repair policy: tear down the dead ISL, bring up a spare.
		push([]uint32{report.Peer + 1}, []uint32{report.Peer})
		return nil
	}
	agent, err := tinyleo.DialSouthboundReliable(ctl.Addr(), 9, 2*time.Second,
		tinyleo.SouthboundAgentOptions{
			BackoffBase: 10 * time.Millisecond,
			BackoffMax:  200 * time.Millisecond,
		})
	if err != nil {
		log.Fatal(err)
	}
	defer agent.Close()
	var applied southbound.PeerSet
	commands := make(chan *tinyleo.SouthboundMessage, 4)
	agent.OnCommand = func(m *tinyleo.SouthboundMessage) {
		if err := applied.Apply(m); err != nil {
			log.Fatal(err)
		}
		commands <- m.Clone() // m is borrowed for the call; the queue keeps a copy
	}
	// next returns the next command the agent applied.
	next := func(stage string) *tinyleo.SouthboundMessage {
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
