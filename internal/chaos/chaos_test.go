package chaos

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/southbound"
)

// testTestbed is sized for test speed: big enough for a multi-cell intent
// region with redundant gateways, small enough to compile in well under a
// second.
var testTestbed = TestbedConfig{Sats: 144, Slots: 4}

func testCampaign(s Scenario, seed int64) Campaign {
	return Campaign{
		Scenario:         s,
		Seed:             seed,
		Testbed:          testTestbed,
		Flows:            3,
		PacketsPerWindow: 8,
		WindowSec:        1,
	}
}

// detScenario exercises every fault path that matters for determinism:
// topology failure, southbound connection loss, a wedged agent (the
// ack timeout → abandon → unreachable pipeline), and a demand surge.
var detScenario = Scenario{
	Name:        "det",
	Rounds:      3,
	Faults:      []FaultKind{FaultISLDown, FaultConnDrop, FaultBlackhole, FaultDemandSurge},
	SurgeFactor: 4,
}

func TestCampaignDeterministic(t *testing.T) {
	var canon [][]byte
	for i, seed := range []int64{42, 42, 43} {
		rep, err := Run(testCampaign(detScenario, seed))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		b, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatalf("canonical json: %v", err)
		}
		canon = append(canon, b)
	}
	if !bytes.Equal(canon[0], canon[1]) {
		t.Fatalf("same seed produced different canonical reports:\n--- run 0 ---\n%s\n--- run 1 ---\n%s",
			canon[0], canon[1])
	}
	// The seed is what the report is a function of, not decoration.
	if bytes.Equal(canon[0], canon[2]) {
		t.Fatal("seeds 42 and 43 produced identical canonical reports")
	}
}

// Slot-delta enforcement batches a round's repair diff: every change to
// one satellite's links rides in one message, both endpoints of a link get
// one (as tinyleo-ctl addresses them), and an agent that reconnected or
// lost a command is re-synced with a snapshot. The campaign stays
// byte-deterministic, sends fewer messages than it has link-endpoint
// changes, and never sends one satellite two messages in a round.
func TestCampaignDeltaDeterministic(t *testing.T) {
	var canon [][]byte
	var rep *Report
	tr := &obs.Tracer{}
	for i := 0; i < 2; i++ {
		c := testCampaign(detScenario, 42)
		if i == 0 {
			c.Tracer = tr
		}
		var err error
		if rep, err = Run(c); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		b, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatalf("canonical json: %v", err)
		}
		canon = append(canon, b)
	}
	if !bytes.Equal(canon[0], canon[1]) {
		t.Fatalf("same seed produced different reports:\n--- run 0 ---\n%s\n--- run 1 ---\n%s",
			canon[0], canon[1])
	}
	sent, changes := 0, 0
	for _, rr := range rep.Rounds {
		sent += rr.CommandsSent
		changes += 2 * (rr.LinksAdded + rr.LinksRemoved) // a link changes at both endpoints
	}
	// One message per satellite per round: no two sends under the same
	// mpc.emit root name the same satellite. Priming sends have no root.
	seen := map[[2]string]bool{}
	deltas, snapshots := 0, 0
	for _, ev := range tr.Events() {
		if ev.Name != "sb.send" || ev.Parent == "" || ev.Attrs["err"] != "" {
			continue
		}
		switch ev.Attrs["type"] {
		case "slot-delta":
			deltas++
		case "slot-snapshot":
			snapshots++
		default:
			continue
		}
		key := [2]string{ev.Parent, ev.Attrs["sat"]}
		if seen[key] {
			t.Errorf("round emit %s sent satellite %s two messages", ev.Parent, ev.Attrs["sat"])
		}
		seen[key] = true
	}
	if len(seen) != sent {
		t.Errorf("trace holds %d enforcement sends, reports count %d", len(seen), sent)
	}
	if deltas == 0 || deltas >= changes {
		t.Errorf("campaign sent %d slot-delta messages for %d link-endpoint changes — batching should send fewer", deltas, changes)
	}
	if snapshots == 0 {
		t.Error("conn drops and abandoned commands, but no slot-snapshot re-sync was sent")
	}
}

func TestBaselineScenarioHealthy(t *testing.T) {
	s, err := ScenarioByName("baseline")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(testCampaign(s, 7))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PacketsSent == 0 {
		t.Fatal("baseline campaign sent no packets")
	}
	if rep.DeliveryRatio < 0.95 {
		t.Fatalf("baseline delivery ratio %.3f, want >= 0.95", rep.DeliveryRatio)
	}
	if rep.EnforcementRatio != 1 {
		t.Fatalf("baseline enforcement ratio %.3f, want 1.0 (no faults, no commands)", rep.EnforcementRatio)
	}
	if len(rep.SLO) == 0 {
		t.Fatal("campaign not scored against any SLO rule")
	}
	if rep.SLOBreached != 0 {
		t.Fatalf("baseline campaign breached %d SLOs: %+v", rep.SLOBreached, rep.SLO)
	}
	if rep.AckTimeouts != 0 {
		t.Fatalf("baseline campaign saw %d ack timeouts, want none", rep.AckTimeouts)
	}
}

func TestISLStormRecoversAndRepairs(t *testing.T) {
	s, err := ScenarioByName("isl-storm")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(testCampaign(s, 11))
	if err != nil {
		t.Fatal(err)
	}
	faulted := 0
	for _, rr := range rep.Rounds {
		faulted += len(rr.Faults)
	}
	if faulted == 0 {
		t.Fatal("isl-storm campaign injected no faults")
	}
	recoveries := 0
	for _, rr := range rep.Rounds {
		recoveries += len(rr.RecoveryMs)
	}
	if recoveries == 0 && rep.Unrecovered == 0 {
		t.Fatal("no recovery measurements on a faulted campaign")
	}
	if rep.DeliveryRatio <= 0 {
		t.Fatal("no packets delivered under isl-storm")
	}
	// Hard link failures must drive the repair loop southbound.
	cmds := 0
	for _, rr := range rep.Rounds {
		cmds += rr.CommandsSent
	}
	if cmds == 0 {
		t.Fatal("isl-storm campaign pushed no southbound commands")
	}
}

func TestBlackholeMarksUnreachableAndRetransmits(t *testing.T) {
	s := Scenario{
		Name:   "wedge",
		Rounds: 2,
		// ISL failure makes the MPC produce commands; the blackhole wedges
		// an agent so some of them must be abandoned.
		Faults: []FaultKind{FaultISLDown, FaultISLDown, FaultBlackhole},
	}
	rep, err := Run(testCampaign(s, 3))
	if err != nil {
		t.Fatal(err)
	}
	// The blackhole targets the addressed endpoint of a failed link, so the
	// repair command toward it must go through the full ack-timeout →
	// unreachable pipeline.
	abandoned := 0
	for _, rr := range rep.Rounds {
		abandoned += rr.CommandsAbandoned
	}
	if abandoned == 0 {
		t.Fatal("wedged agent never had a command abandoned")
	}
	if rep.AckTimeouts == 0 {
		t.Fatal("commands abandoned but ack-timeout counter is zero")
	}
	found := false
	for _, ev := range rep.Events {
		if ev.Type == "unreachable" {
			found = true
		}
	}
	if !found {
		t.Fatal("abandoned commands but no unreachable event logged")
	}
	if rep.EnforcementRatio <= 0 {
		t.Fatal("enforcement ratio collapsed to zero")
	}
}

func TestConnDropReconnects(t *testing.T) {
	s := Scenario{Name: "flap", Rounds: 2, Faults: []FaultKind{FaultConnDrop}}
	rep, err := Run(testCampaign(s, 5))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reconnects < 2 {
		t.Fatalf("expected >= 2 agent reconnections (one per round), got %d", rep.Reconnects)
	}
	if rep.AckTimeouts != 0 {
		t.Fatalf("conn drops with empty pending tables should not abandon commands, got %d", rep.AckTimeouts)
	}
}

// The re-sync gap, campaign form: conn-flap changes no link, so before
// DeltaEnforcer.Resync a reconnected agent was never re-synced and no
// campaign ever sent a slot-snapshot. Now every reconnect is answered by
// one within the round, and the convergence invariant (checked by Run
// after every round) holds throughout.
func TestConnFlapResyncsEveryReconnect(t *testing.T) {
	s, err := ScenarioByName("conn-flap")
	if err != nil {
		t.Fatal(err)
	}
	c := testCampaign(s, 42)
	c.Tracer = &obs.Tracer{}
	rep, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reconnects != int64(2*s.Rounds) {
		t.Fatalf("reconnects = %d, want %d (two conn drops a round)", rep.Reconnects, 2*s.Rounds)
	}
	snapshots := int64(0)
	for _, ev := range c.Tracer.Events() {
		if ev.Name == "sb.send" && ev.Parent != "" && ev.Attrs["type"] == "slot-snapshot" && ev.Attrs["err"] == "" {
			snapshots++
		}
	}
	if snapshots < rep.Reconnects {
		t.Errorf("%d slot-snapshot re-syncs for %d reconnects", snapshots, rep.Reconnects)
	}
	if rep.EnforcementRatio != 1 {
		t.Errorf("enforcement ratio %.3f: a re-sync went unacknowledged", rep.EnforcementRatio)
	}
}

// Seeded mutation for the convergence invariant: one op of one slot-delta
// batch is lost between the wire and the agent's PeerSet. The enforcer
// believes the satellite holds the link change, the agent does not, and
// Run must fail naming the satellite and the peer.
func TestDroppedOpIsCaught(t *testing.T) {
	var mu sync.Mutex
	var sat, peer uint32
	dropped := false
	tamper = func(m *southbound.Message) {
		mu.Lock()
		defer mu.Unlock()
		ops, err := southbound.DecodeSlotDelta(m.Payload)
		if dropped || m.Type != southbound.MsgSlotDelta || err != nil || len(ops) == 0 {
			return
		}
		dropped, sat, peer = true, m.SatID, ops[0].Peer
		m.Payload = southbound.EncodeSlotDelta(ops[1:])
	}
	defer func() { tamper = nil }()
	s, err := ScenarioByName("isl-storm")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(testCampaign(s, 11))
	if !dropped {
		t.Fatal("campaign sent no slot-delta to tamper with")
	}
	if err == nil {
		t.Fatalf("satellite %d lost the op for peer %d and the campaign passed", sat, peer)
	}
	if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("satellite %d diverged", sat)) ||
		!strings.Contains(msg, fmt.Sprintf("[%d]", peer)) {
		t.Errorf("error does not name satellite %d and peer %d: %v", sat, peer, err)
	}
}

func TestScenarioRegistry(t *testing.T) {
	all := Scenarios()
	if len(all) == 0 {
		t.Fatal("no built-in scenarios")
	}
	for _, want := range all {
		s, err := ScenarioByName(want.Name)
		if err != nil {
			t.Fatalf("built-in scenario %q: %v", want.Name, err)
		}
		if s.Rounds <= 0 {
			t.Fatalf("scenario %q has %d rounds", s.Name, s.Rounds)
		}
	}
	if _, err := ScenarioByName("no-such-scenario"); err == nil {
		t.Fatal("unknown scenario resolved without error")
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(vals, 50); got != 5 {
		t.Fatalf("p50 = %v, want 5", got)
	}
	if got := percentile(vals, 99); got != 10 {
		t.Fatalf("p99 = %v, want 10", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Fatalf("p50 of empty = %v, want 0", got)
	}
	if got := percentile([]float64{3}, 99); got != 3 {
		t.Fatalf("p99 of singleton = %v, want 3", got)
	}
}
