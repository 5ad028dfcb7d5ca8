package chaos

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/dataplane"
	"repro/internal/mpc"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/obs/fleet"
	"repro/internal/obs/flightrec"
	"repro/internal/southbound"
)

// MetricAgentApplied is the per-agent counter campaigns publish over the
// fleet telemetry plane: southbound commands the agent's OnCommand
// callback applied. It is the series the campaign's rollup totals are
// checked against.
const MetricAgentApplied = "tinyleo_chaos_agent_applied_total"

// Campaign configures one seeded chaos run.
type Campaign struct {
	Scenario Scenario
	// Seed drives every random choice (fault targets, storm loss, agent
	// backoff jitter). Same seed + same scenario → byte-identical
	// CanonicalJSON.
	Seed int64
	// Testbed sizes the system under test (zero values take defaults).
	Testbed TestbedConfig
	// Flows is how many measured cell-to-cell flows to carry (default 4).
	Flows int
	// PacketsPerWindow is the per-flow offered load per measurement window
	// (default 16).
	PacketsPerWindow int
	// WindowSec is the sim-time length of each measurement window
	// (default 2 s).
	WindowSec float64
	// Tracer, when non-nil, records the campaign's causal spans (mpc.emit
	// roots, southbound send/ack, agent applies). The engine re-enables
	// it on the campaign's virtual clock and seeds its span IDs from Seed,
	// so two runs of the same campaign produce identical span timestamps
	// and a byte-identical canonical merged trace
	// (tracemerge.WriteCanonical).
	Tracer *obs.Tracer
}

func (c *Campaign) fillDefaults() {
	if c.Flows <= 0 {
		c.Flows = 4
	}
	if c.PacketsPerWindow <= 0 {
		c.PacketsPerWindow = 16
	}
	if c.WindowSec <= 0 {
		c.WindowSec = 2
	}
}

// Southbound reliability tuning for campaigns: virtual-clock times (the
// engine advances them explicitly) and a fast real-time reconnect backoff
// so conn-drop rounds settle quickly.
const (
	campaignAckTimeout = 5 * time.Second
	// campaignWedgeAdvance is the one step the virtual clock takes to
	// carry a wedged agent's commands past campaignAckTimeout. Any step
	// past it abandons them; 8 s keeps the campaign's virtual timeline,
	// fleet ladder and trace timestamps at their pinned values.
	campaignWedgeAdvance = 8 * time.Second
	campaignBackoffBase  = 2 * time.Millisecond
	campaignBackoffMax   = 20 * time.Millisecond
	campaignRepairRTT    = 50 * time.Millisecond
	campaignPayloadBytes = 1024
	settleTimeout        = 10 * time.Second

	// Fleet telemetry cadence: each round ends with one coalesced report
	// per live agent, then the virtual clock advances one round tick and
	// the aggregator sweeps staleness. A flushed agent is therefore always
	// exactly one tick old at the sweep (healthy), while a crashed agent
	// accumulates ticks and drifts healthy → lagging → silent over the
	// following rounds.
	campaignRoundTick   = 10 * time.Second
	campaignFleetLag    = 15 * time.Second
	campaignFleetSilent = 25 * time.Second
)

// flow is one measured src→dst cell pair with its installed geo route and
// injection gateway.
type flow struct {
	src, dst int
	route    []int // cell route, destination last
	gw       int   // injection gateway satellite
}

// tamper, when a test sets it, rewrites a command between an agent's wire
// and its PeerSet: the seeded mutation the convergence invariant must catch.
var tamper func(m *southbound.Message)

type runner struct {
	c   Campaign
	tb  *Testbed
	ctl *southbound.Controller
	enf *southbound.DeltaEnforcer
	vc  *VClock
	rng *rand.Rand
	// sent is the round's fault accounting, filled by the enforcer's per-send
	// hook: satellite → seq of the message carrying the round's state to it.
	sent map[int]uint32

	// mu guards everything the southbound callbacks (controller and agent
	// goroutines) share with the engine goroutine.
	mu sync.Mutex
	//tinyleo:guardedby mu
	agents map[int]*southbound.Agent
	//tinyleo:guardedby mu
	gates map[int]chan struct{} // blackholed agents (OnCommand blocks)
	//tinyleo:guardedby mu
	wedgedEntered map[int]bool // gated agents that reached their blocking callback
	//tinyleo:guardedby mu
	acked map[uint32]bool // command seqs acknowledged
	//tinyleo:guardedby mu
	crashedReconnects int64 // Agent.Reconnects of the agents crashed so far

	// Fleet telemetry plane: one always-enabled private registry +
	// reporter per agent feeding a virtual-clock aggregator, so the
	// campaign's constellation health view is part of the deterministic
	// report. fleetApplied/fleetReps/applied (each agent's ISL peer set,
	// which the invariant compares with the enforcer's) are written once in
	// start() and read-only afterwards.
	agg          *fleet.Aggregator
	fleetApplied map[int]*obs.Counter
	fleetReps    map[int]*fleet.Reporter
	applied      map[int]*southbound.PeerSet

	flows   []flow
	snap    *mpc.Snapshot
	impair  map[*netem.Link]*netem.Impairment
	crashed map[int]bool
	// prevUnreachable feeds last round's abandoned-command satellites into
	// this round's Repair as failed (graceful degradation: the controller
	// routes around them instead of erroring).
	prevUnreachable []int

	report *Report
	round  int
	curRR  *RoundReport
	// faultTime and firstDelivery measure per-flow recovery (sim seconds).
	faultTime     float64
	firstDelivery map[int]float64
	surged        map[int]bool
	pktSeq        uint32
}

// Run executes one seeded campaign and returns its report.
func Run(c Campaign) (*Report, error) {
	c.fillDefaults()
	if c.Scenario.Rounds <= 0 {
		return nil, fmt.Errorf("chaos: scenario %q has no rounds", c.Scenario.Name)
	}
	tb, err := NewTestbed(c.Testbed)
	if err != nil {
		return nil, err
	}
	r := &runner{
		c: c, tb: tb,
		vc:            NewVClock(),
		rng:           rand.New(rand.NewSource(c.Seed)),
		agents:        map[int]*southbound.Agent{},
		gates:         map[int]chan struct{}{},
		wedgedEntered: map[int]bool{},
		acked:         map[uint32]bool{},
		sent:          map[int]uint32{},
		fleetApplied:  map[int]*obs.Counter{},
		fleetReps:     map[int]*fleet.Reporter{},
		applied:       map[int]*southbound.PeerSet{},
		impair:        map[*netem.Link]*netem.Impairment{},
		crashed:       map[int]bool{},
		snap:          tb.Snap,
		report:        &Report{Scenario: c.Scenario.Name, Seed: c.Seed},
	}
	defer r.shutdown()
	if err := r.start(); err != nil {
		return nil, err
	}
	if err := r.pickFlows(); err != nil {
		return nil, err
	}
	r.installHooks()
	wallStart := time.Now()
	for round := 0; round < c.Scenario.Rounds; round++ {
		if err := r.runRound(round); err != nil {
			return nil, err
		}
	}
	if err := r.finish(wallStart); err != nil {
		return nil, err
	}
	return r.report, nil
}

// start brings up the southbound plane: a controller on a virtual clock,
// one reconnecting agent per network satellite, and the compiled snapshot
// enforced on them.
func (r *runner) start() error {
	ctl, err := southbound.ListenController("127.0.0.1:0")
	if err != nil {
		return err
	}
	r.ctl = ctl
	ctl.Clock = r.vc.Now
	if r.c.Tracer != nil {
		// Rebase the tracer onto the campaign's virtual clock and seed its
		// span IDs before any span starts: timestamps and ID streams become
		// pure functions of (seed, scenario).
		r.c.Tracer.SetClock(r.vc.Now)
		r.c.Tracer.SeedIDs(uint64(r.c.Seed))
		r.c.Tracer.SetProcess("chaos")
		r.c.Tracer.Enable(0)
		ctl.Tracer = r.c.Tracer
	}
	ctl.AckTimeout = campaignAckTimeout
	ctl.OnAck = func(m *southbound.Message) {
		r.mu.Lock()
		r.acked[m.Seq] = true
		r.mu.Unlock()
	}
	// Before any agent dials, so that a first hello marks it unsynced.
	r.enf = southbound.NewDeltaEnforcer(ctl)
	r.enf.OnSent = func(m *southbound.Message) { r.sent[int(m.SatID)] = m.Seq }

	// The fleet aggregator runs on the campaign's virtual clock with a
	// private (disabled) tracer for its events: health transitions surface
	// only through OnTransition → r.event, so they land in the
	// deterministic report exactly once. Tick runs on the engine
	// goroutine (flushFleet), which makes r.event safe to call here.
	r.agg = fleet.NewAggregator(fleet.Options{
		Clock:       r.vc.Now,
		LagAfter:    campaignFleetLag,
		SilentAfter: campaignFleetSilent,
		Tracer:      new(obs.Tracer),
		OnTransition: func(agent uint32, from, to fleet.State) {
			typ := "agent_" + string(to)
			if to == fleet.StateHealthy {
				typ = "agent_recovered"
			}
			r.event(typ, "sat", fmt.Sprint(agent), "from", string(from), "to", string(to))
		},
	})
	ctl.OnTelemetry = func(sat uint32, payload []byte) {
		// Malformed reports are counted by the aggregator; a campaign
		// never produces one, so the error is not surfaced further.
		_ = r.agg.HandleReport(sat, payload)
	}

	ids := make([]int, 0, len(r.tb.Net.Sats))
	for id := range r.tb.Net.Sats {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		id := id
		reg := obs.NewRegistry(true)
		applied := reg.Counter(MetricAgentApplied)
		peers := &southbound.PeerSet{}
		a, err := southbound.DialAgentOptions(ctl.Addr(), uint32(id), 2*time.Second,
			southbound.AgentOptions{
				BackoffBase: campaignBackoffBase,
				BackoffMax:  campaignBackoffMax,
				Seed:        r.c.Seed + int64(id) + 1,
				Tracer:      r.c.Tracer,
			})
		if err != nil {
			return fmt.Errorf("chaos: dial agent %d: %w", id, err)
		}
		a.OnCommand = func(m *southbound.Message) {
			r.mu.Lock()
			gate := r.gates[id]
			if gate != nil {
				r.wedgedEntered[id] = true
			}
			r.mu.Unlock()
			if gate != nil {
				<-gate // blackholed: wedge until the round releases it
			}
			if tamper != nil {
				tamper(m)
			}
			_ = peers.Apply(m) // a rejected payload shows up as a divergence
			applied.Inc()
		}
		r.mu.Lock()
		r.agents[id] = a
		r.mu.Unlock()
		r.applied[id] = peers
		r.fleetApplied[id] = applied
		r.fleetReps[id] = fleet.NewReporter(fleet.NewEncoder(reg), a.SendTelemetry)
	}
	// Prime the enforcer and every agent with the compiled snapshot, as
	// tinyleo-ctl's slot 0 does: a first push is a snapshot of the desired set.
	for _, b := range mpc.BatchBySatellite(r.tb.Snap.Links(), nil) {
		if err := r.enf.Push(uint32(b.Sat), b.Add, nil, r.vc.Now(), obs.SpanContext{}); err != nil {
			return fmt.Errorf("chaos: prime satellite %d: %w", b.Sat, err)
		}
	}
	return r.waitCond(func() bool { return r.ctl.PendingAcks() == 0 }, "priming acks")
}

// checkConverged is §5's contract as an executable invariant: once a
// round's commands have settled, every live agent has applied exactly the
// peer set the enforcer desires for it. The first divergence is an
// enforcement_diverged event and fails the campaign.
func (r *runner) checkConverged() error {
	for _, id := range r.agentIDs(false) {
		want, got := r.enf.Desired(uint32(id)), r.applied[id].Peers()
		if missing, extra := peersNotIn(want, got), peersNotIn(got, want); len(missing)+len(extra) > 0 {
			r.event("enforcement_diverged", "sat", fmt.Sprint(id),
				"missing", fmt.Sprint(missing), "extra", fmt.Sprint(extra))
			return fmt.Errorf("chaos: round %d: satellite %d diverged from the enforcer: missing peers %v, extra peers %v",
				r.round, id, missing, extra)
		}
	}
	return nil
}

// peersNotIn returns the members of a absent from b (both ascending).
func peersNotIn(a, b []uint32) []uint32 {
	var out []uint32
	for _, p := range a {
		if _, found := slices.BinarySearch(b, p); !found {
			out = append(out, p)
		}
	}
	return out
}

// pickFlows selects the campaign's measured flows: the first sorted cell
// pairs with a ≥3-cell intent route whose probe packet actually delivers
// (it runs before the measurement hooks are installed).
func (r *runner) pickFlows() error {
	for _, src := range r.tb.Cells {
		for _, dst := range r.tb.Cells {
			if len(r.flows) >= r.c.Flows {
				return nil
			}
			if src >= dst {
				continue
			}
			route, err := r.tb.Topo.ShortestPathRoute(src, dst)
			if err != nil || len(route.Cells) < 3 {
				continue
			}
			gw, ok := r.tb.GatewayOf(src)
			if !ok || !r.tb.ProbeDelivers(gw, route.Cells) {
				continue
			}
			r.flows = append(r.flows, flow{src: src, dst: dst, route: route.Cells, gw: gw})
		}
	}
	if len(r.flows) == 0 {
		return fmt.Errorf("chaos: no deliverable flows in testbed")
	}
	return nil
}

// installHooks attaches the round accounting to the data plane. Both hooks
// run on the engine goroutine (inside Sim.Run), so they touch round state
// without locks.
func (r *runner) installHooks() {
	r.tb.Net.OnDeliver = func(s *dataplane.Satellite, p *dataplane.Packet) {
		fi := int(p.Base.FlowID)
		if fi < 0 || fi >= len(r.flows) {
			return // probe or stale sentinel
		}
		r.curRR.PacketsDelivered++
		if _, ok := r.firstDelivery[fi]; !ok {
			r.firstDelivery[fi] = r.tb.Net.Sim.Now()
		}
	}
	r.tb.Net.OnDrop = func(s *dataplane.Satellite, p *dataplane.Packet, reason string) {
		fi := int(p.Base.FlowID)
		if fi < 0 || fi >= len(r.flows) {
			return
		}
		r.curRR.PacketsDropped++
	}
}

// event appends to the campaign's deterministic event log (and mirrors it
// into the flight recorder when one is recording).
func (r *runner) event(typ string, attrs ...string) {
	r.report.Events = append(r.report.Events, Event{
		Round: r.round, SimTime: r.tb.Net.Sim.Now(), Type: typ, Attrs: attrs,
	})
	if flightrec.Enabled() {
		flightrec.Emit(flightrec.CompChaos, typ,
			append([]string{"round", fmt.Sprint(r.round)}, attrs...)...)
	}
}

// runRound executes one fault→measure→repair→measure cycle.
func (r *runner) runRound(round int) error {
	r.round = round
	rr := RoundReport{Round: round}
	r.curRR = &rr
	r.firstDelivery = map[int]float64{}
	r.surged = map[int]bool{}
	r.sent = map[int]uint32{}

	// Phase 1: inject this round's faults.
	failedLinks, crashedNow, err := r.injectFaults(&rr)
	if err != nil {
		return err
	}
	r.faultTime = r.tb.Net.Sim.Now()
	faulted := len(rr.Faults) > 0

	// Phase 2: offered load under failure — local failover (§4.3) carries
	// what it can before the control plane reacts.
	r.injectWindow(&rr)

	// Phase 3: MPC repair (§4.2). Unreachable satellites from the previous
	// round are handed to the controller as failed instead of erroring.
	failedSats := append(append([]int{}, crashedNow...), r.prevUnreachable...)
	sort.Ints(failedSats)
	wall := time.Now()
	newSnap, rstats := r.tb.Ctl.Repair(r.snap, failedLinks, failedSats, campaignRepairRTT)
	r.report.WallRepairMs = append(r.report.WallRepairMs, float64(time.Since(wall).Microseconds())/1000)
	added, removed := mpc.DiffLinks(r.snap, newSnap)
	rr.LinksAdded, rr.LinksRemoved, rr.Unrepaired = len(added), len(removed), rstats.Unrepaired
	r.event("repair",
		"failed_links", fmt.Sprint(len(failedLinks)),
		"failed_sats", fmt.Sprint(len(failedSats)),
		"added", fmt.Sprint(len(added)),
		"removed", fmt.Sprint(len(removed)),
		"unrepaired", fmt.Sprint(rstats.Unrepaired))

	// Phase 4: southbound enforcement (sent once, acked or abandoned), then
	// the convergence invariant over what the agents applied.
	acked, err := r.enforce(&rr, added, removed)
	if err != nil {
		return err
	}
	if err := r.checkConverged(); err != nil {
		return err
	}
	r.snap = newSnap

	// Phase 5: apply acknowledged changes to the live network and flush
	// §4.3's repair buffers.
	r.tb.apply(newSnap, added, removed, acked)
	r.tb.Net.FlushBuffers()

	// Phase 6: offered load after repair.
	r.injectWindow(&rr)

	// Phase 7: fleet telemetry — every live agent flushes one coalesced
	// report, then the virtual clock ticks and the aggregator sweeps
	// staleness (crashed agents drift toward silent; transitions land in
	// the deterministic event log via OnTransition).
	if err := r.flushFleet(); err != nil {
		return err
	}

	if faulted {
		for fi := range r.flows {
			if t, ok := r.firstDelivery[fi]; ok {
				rr.RecoveryMs = append(rr.RecoveryMs, (t-r.faultTime)*1000)
			} else {
				rr.Unrecovered++
			}
		}
		sort.Float64s(rr.RecoveryMs)
	}
	r.report.Rounds = append(r.report.Rounds, rr)
	r.curRR = nil
	return nil
}

// flushFleet ends a round's telemetry window: every live agent pushes
// one coalesced report, the engine waits for the aggregator to absorb
// them all (so report timestamps are the pre-advance virtual time), then
// advances the virtual clock one round tick and runs the staleness
// sweep. All aggregator reads below happen after this settles, so the
// health view is a pure function of (seed, scenario).
func (r *runner) flushFleet() error {
	ids := r.agentIDs(false)
	type flushed struct {
		id  int
		seq uint64
	}
	var pend []flushed
	for _, id := range ids {
		seq, err := r.fleetReps[id].Flush()
		if err != nil {
			// Connection died mid-flush: the reporter reset its session, so
			// the next successful flush re-ships absolutes. Nothing to wait
			// for this round.
			continue
		}
		pend = append(pend, flushed{id: id, seq: seq})
	}
	if err := r.waitCond(func() bool {
		for _, p := range pend {
			if r.agg.AgentSeq(uint32(p.id)) < p.seq {
				return false
			}
		}
		return true
	}, "fleet reports"); err != nil {
		return err
	}
	r.vc.Advance(campaignRoundTick)
	r.agg.Tick()
	return nil
}

// upInterLinks lists the compiled inter-cell ISLs currently up in the
// network, in deterministic order: the isl_down / flap_storm target pool.
func (r *runner) upInterLinks() []mpc.Link {
	var out []mpc.Link
	for _, l := range r.snap.InterLinks {
		if nl := r.tb.Net.Link(l[0], l[1]); nl != nil && nl.IsUp() {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}

// agentIDs lists, ascending, the agents that have not crashed; as a fault's
// target pool (crash, conn-drop, blackhole) it leaves out the blackholed
// ones. Caller must not hold r.mu.
func (r *runner) agentIDs(targets bool) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, 0, len(r.agents))
	for id := range r.agents {
		if !targets || r.gates[id] == nil {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// injectFaults draws this round's faults from the scenario pool and
// applies them. Returns the hard link failures and satellites crashed now
// (both feed the MPC repair).
func (r *runner) injectFaults(rr *RoundReport) ([]mpc.Link, []int, error) {
	var failedLinks []mpc.Link
	var crashedNow []int
	for _, kind := range r.c.Scenario.Faults {
		switch kind {
		case FaultISLDown:
			cands := r.upInterLinks()
			if len(cands) == 0 {
				continue
			}
			l := cands[r.rng.Intn(len(cands))]
			r.tb.Net.Link(l[0], l[1]).Down()
			failedLinks = append(failedLinks, l)
			rr.Faults = append(rr.Faults, fmt.Sprintf("isl_down %d-%d", l[0], l[1]))
			r.event(string(FaultISLDown), "a", fmt.Sprint(l[0]), "b", fmt.Sprint(l[1]))

		case FaultFlapStorm:
			cands := r.upInterLinks()
			if len(cands) == 0 {
				continue
			}
			l := cands[r.rng.Intn(len(cands))]
			nl := r.tb.Net.Link(l[0], l[1])
			im := r.impair[nl]
			if im == nil {
				im = netem.NewImpairment(r.rng.Int63(), 0.35)
				im.LossUntil = r.tb.Net.Sim.Now() + r.c.WindowSec
				im.Attach(r.tb.Net.Sim, nl, 0)
				r.impair[nl] = im
			} else {
				im.LossUntil = r.tb.Net.Sim.Now() + r.c.WindowSec
			}
			rr.Faults = append(rr.Faults, fmt.Sprintf("flap_storm %d-%d", l[0], l[1]))
			r.event(string(FaultFlapStorm), "a", fmt.Sprint(l[0]), "b", fmt.Sprint(l[1]))

		case FaultSatCrash:
			var cands []int
			for _, id := range r.agentIDs(true) {
				if s := r.tb.Net.Sats[id]; s != nil && len(s.Peers()) > 0 {
					cands = append(cands, id)
				}
			}
			if len(cands) == 0 {
				continue
			}
			id := cands[r.rng.Intn(len(cands))]
			r.mu.Lock()
			a := r.agents[id]
			delete(r.agents, id)
			r.mu.Unlock()
			a.Close()
			r.mu.Lock()
			r.crashedReconnects += a.Reconnects()
			r.mu.Unlock()
			for _, peer := range r.tb.Net.Sats[id].Peers() {
				if nl := r.tb.Net.Link(id, peer); nl != nil && nl.IsUp() {
					nl.Down()
					failedLinks = append(failedLinks, mpc.MakeLink(id, peer))
				}
			}
			r.crashed[id] = true
			crashedNow = append(crashedNow, id)
			if err := r.waitCond(func() bool {
				return r.ctl.AgentCount() == len(r.agentIDs(false))
			}, "crash deregistration"); err != nil {
				return nil, nil, err
			}
			rr.Faults = append(rr.Faults, fmt.Sprintf("sat_crash %d", id))
			r.event(string(FaultSatCrash), "sat", fmt.Sprint(id))

		case FaultConnDrop:
			cands := r.agentIDs(true)
			if len(cands) == 0 {
				continue
			}
			id := cands[r.rng.Intn(len(cands))]
			r.mu.Lock()
			a := r.agents[id]
			r.mu.Unlock()
			before := r.ctl.Registrations(uint32(id))
			a.DropConn()
			if err := r.waitCond(func() bool {
				return r.ctl.Registrations(uint32(id)) > before
			}, "agent reconnect"); err != nil {
				return nil, nil, err
			}
			rr.Faults = append(rr.Faults, fmt.Sprintf("conn_drop %d", id))
			r.event(string(FaultConnDrop), "sat", fmt.Sprint(id))

		case FaultBlackhole:
			// Prefer wedging an agent the repair loop is about to command:
			// an endpoint of a link already failed this round. Falling back
			// to any live agent keeps the fault meaningful in fault pools
			// without a topology failure.
			var cands []int
			live := map[int]bool{}
			for _, id := range r.agentIDs(true) {
				live[id] = true
			}
			for _, l := range failedLinks {
				for _, end := range l {
					if live[end] {
						live[end] = false
						cands = append(cands, end)
					}
				}
			}
			if len(cands) == 0 {
				cands = r.agentIDs(true)
			}
			if len(cands) == 0 {
				continue
			}
			id := cands[r.rng.Intn(len(cands))]
			r.mu.Lock()
			r.gates[id] = make(chan struct{})
			r.mu.Unlock()
			rr.Faults = append(rr.Faults, fmt.Sprintf("blackhole %d", id))
			r.event(string(FaultBlackhole), "sat", fmt.Sprint(id))

		case FaultDemandSurge:
			n := len(r.flows) / 3
			if n < 1 {
				n = 1
			}
			var cands []int
			for fi := range r.flows {
				if !r.surged[fi] {
					cands = append(cands, fi)
				}
			}
			for i := 0; i < n && len(cands) > 0; i++ {
				j := r.rng.Intn(len(cands))
				fi := cands[j]
				cands = append(cands[:j], cands[j+1:]...)
				r.surged[fi] = true
				rr.Faults = append(rr.Faults, fmt.Sprintf("demand_surge flow%d", fi))
				r.event(string(FaultDemandSurge), "flow", fmt.Sprint(fi))
			}
		}
	}
	return failedLinks, crashedNow, nil
}

// injectWindow offers one window of load on every flow and runs the sim
// through it. Surged flows inject their multiplied load as a burst at the
// window start (a demand spike), normal flows pace evenly.
func (r *runner) injectWindow(rr *RoundReport) {
	sim := r.tb.Net.Sim
	start := sim.Now()
	payload := make([]byte, campaignPayloadBytes)
	for fi := range r.flows {
		count := r.c.PacketsPerWindow
		burst := false
		if r.surged[fi] {
			factor := r.c.Scenario.SurgeFactor
			if factor < 2 {
				factor = 2
			}
			count *= factor
			burst = true
		}
		for i := 0; i < count; i++ {
			off := r.c.WindowSec * float64(i) / float64(count)
			if burst {
				off = 0
			}
			fi := fi
			r.pktSeq++
			seq := r.pktSeq
			sim.Schedule(off, func() {
				f := r.flows[fi]
				p, err := dataplane.NewGeoPacket(uint32(f.gw), f.route, uint32(fi), seq, payload)
				if err != nil {
					return
				}
				r.tb.Net.Inject(f.gw, p)
			})
			rr.PacketsSent++
		}
	}
	sim.Run(start + r.c.WindowSec)
}

// enforce pushes the repair diff southbound and settles it: healthy agents
// ack over TCP; blackholed agents' commands are abandoned past AckTimeout
// on the virtual clock; the unreachable set is drained before gates
// release so late acknowledgements cannot leak into the next round's
// failure input. It returns, for every satellite a message
// was sent to, whether the satellite acknowledged it.
func (r *runner) enforce(rr *RoundReport, added, removed []mpc.Link) (map[int]bool, error) {
	// One mpc.emit root per round: every enforced command's causal tree
	// (send → apply → ack) hangs off it in the merged trace.
	var emit obs.Span
	if r.c.Tracer != nil && r.c.Tracer.Enabled() {
		emit = r.c.Tracer.StartSpanCtx(obs.SpanContext{}, "mpc.emit",
			"round", fmt.Sprint(r.round),
			"commands", fmt.Sprint(len(added)+len(removed)))
	}
	defer emit.End()
	timeouts := r.ctl.Metrics().Counter(southbound.MetricAckTimeouts)
	abandonedBefore := timeouts.Value()
	// tinyleo-ctl's slot: one batch per changed satellite, then a re-sync of
	// whoever re-registered or lost a command. A push to a satellite with no
	// agent (crashed, or a gateway the repair introduced) fails in Send.
	for _, b := range mpc.BatchBySatellite(added, removed) {
		if err := r.enf.Push(uint32(b.Sat), b.Add, b.Del, r.vc.Now(), emit.Context()); err != nil {
			rr.CommandsUnknown++
		}
	}
	r.enf.Resync(r.vc.Now(), emit.Context())
	rr.CommandsSent = len(r.sent)
	gatedTargets := map[int]bool{}
	r.mu.Lock()
	for sat := range r.sent {
		if r.gates[sat] != nil {
			gatedTargets[sat] = true
		}
	}
	r.mu.Unlock()

	// Healthy agents ack promptly over real TCP.
	if err := r.waitCond(func() bool {
		return r.ctl.PendingAcks() <= len(gatedTargets)
	}, "command acks"); err != nil {
		return nil, err
	}
	// Wedged agents must have reached their blocking callback before the
	// virtual clock moves: their apply span starts (and the trace's
	// determinism) depend on the command being read at this round's time,
	// not mid-sweep.
	if len(gatedTargets) > 0 {
		if err := r.waitCond(func() bool {
			r.mu.Lock()
			defer r.mu.Unlock()
			for id := range gatedTargets {
				if !r.wedgedEntered[id] {
					return false
				}
			}
			return true
		}, "wedged agents entering apply"); err != nil {
			return nil, err
		}
	}
	// Anything still pending targets a wedged agent: abandon it past
	// AckTimeout on the virtual clock.
	if r.ctl.PendingAcks() > 0 {
		r.vc.Advance(campaignWedgeAdvance)
		r.ctl.SweepPending()
	}
	unreachable := r.ctl.TakeUnreachable()
	r.prevUnreachable = r.prevUnreachable[:0]
	for _, id := range unreachable {
		r.prevUnreachable = append(r.prevUnreachable, int(id))
		r.event("unreachable", "sat", fmt.Sprint(id))
	}
	rr.CommandsAbandoned = int(timeouts.Value() - abandonedBefore)
	r.mu.Lock()
	released := make([]int, 0, len(r.gates))
	for id, gate := range r.gates {
		close(gate)
		released = append(released, id)
	}
	r.gates = map[int]chan struct{}{}
	r.wedgedEntered = map[int]bool{}
	r.mu.Unlock()
	sort.Ints(released)

	// Flush barrier: one inert probe, an empty slot delta, per released
	// agent. Its ack arriving implies every command queued before it was
	// processed (the connection is FIFO and the controller serves it
	// serially), so the acked set is settled before we read it.
	for _, id := range released {
		probe := &southbound.Message{Type: southbound.MsgSlotDelta, SatID: uint32(id), Payload: southbound.EncodeSlotDelta(nil)}
		if err := r.ctl.Send(probe); err != nil {
			continue // agent died mid-round; nothing buffered to flush
		}
	}
	if err := r.waitCond(func() bool {
		return r.ctl.PendingAcks() == 0
	}, "flush barrier"); err != nil {
		return nil, err
	}
	acked := make(map[int]bool, len(r.sent))
	r.mu.Lock()
	for sat, seq := range r.sent {
		acked[sat] = r.acked[seq]
		if acked[sat] {
			rr.CommandsAcked++
		}
	}
	r.mu.Unlock()
	return acked, nil
}

// finish aggregates counters and scores the campaign's SLOs.
func (r *runner) finish(wallStart time.Time) error {
	rep := r.report
	reg := r.ctl.Metrics()
	rep.AckTimeouts = reg.Counter(southbound.MetricAckTimeouts).Value()
	r.mu.Lock()
	rep.Reconnects = r.crashedReconnects
	for _, a := range r.agents {
		rep.Reconnects += a.Reconnects()
	}
	r.mu.Unlock()
	for _, l := range r.tb.Net.Links() {
		rep.LinkDrops += l.Drops
		rep.LostInFlight += l.LostInFlight
	}
	for _, im := range r.impair {
		rep.ImpairmentLosses += im.Losses
	}
	sent, acked := 0, 0
	for _, rr := range rep.Rounds {
		sent += rr.CommandsSent
		acked += rr.CommandsAcked
	}
	if sent > 0 {
		rep.EnforcementRatio = float64(acked) / float64(sent)
	} else {
		rep.EnforcementRatio = 1
	}
	rep.Fleet = r.fleetSummary()
	rep.aggregate()
	if err := rep.score(r.c.Scenario.SLO); err != nil {
		return err
	}
	rep.WallElapsedMs = float64(time.Since(wallStart).Microseconds()) / 1000
	return nil
}

// fleetSummary reads the campaign's final constellation health view out
// of the aggregator. Everything here is derived from virtual-clock state
// settled by the last flushFleet, so the summary is deterministic and
// belongs in CanonicalJSON.
func (r *runner) fleetSummary() *FleetSummary {
	v := r.agg.View()
	fs := &FleetSummary{Summary: v.Summary(), Totals: v.Totals}
	for _, applied := range r.fleetApplied {
		fs.AppliedTotal += applied.Value()
	}
	return fs
}

// waitCond polls cond (real time) until it holds or the settle timeout
// expires. Only logical state is read inside cond, so the poll cadence
// never leaks into the report.
func (r *runner) waitCond(cond func() bool, what string) error {
	deadline := time.Now().Add(settleTimeout)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("chaos: timed out waiting for %s", what)
}

// shutdown releases any held gates (a wedged agent cannot close while its
// OnCommand is blocked) and tears the southbound plane down.
func (r *runner) shutdown() {
	ids := r.agentIDs(false)
	r.mu.Lock()
	for _, gate := range r.gates {
		close(gate)
	}
	r.gates = map[int]chan struct{}{}
	agents := make([]*southbound.Agent, 0, len(ids))
	for _, id := range ids {
		agents = append(agents, r.agents[id])
	}
	r.mu.Unlock()
	for _, a := range agents {
		a.Close()
	}
	if r.ctl != nil {
		r.ctl.Close()
	}
}
