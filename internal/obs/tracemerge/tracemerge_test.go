package tracemerge

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flightrec"
	"repro/internal/southbound"
)

// procTracer emulates one process: its own tracer, name, and (skewed)
// clock.
func procTracer(name string, skew time.Duration) *obs.Tracer {
	tr := &obs.Tracer{}
	tr.SetProcess(name)
	tr.SetClock(func() time.Time { return time.Now().Add(skew) })
	tr.Enable(1024)
	return tr
}

// raise is a traced slot-delta command raising sat's ISL toward peer.
func raise(sat, peer uint32, trace obs.SpanContext) *southbound.Message {
	return &southbound.Message{Type: southbound.MsgSlotDelta, SatID: sat,
		Payload: southbound.EncodeSlotDelta([]southbound.SlotDeltaOp{{Peer: peer, Up: true}}),
		Trace:   trace, Emitted: time.Now()}
}

func dumpOf(t *testing.T, tr *obs.Tracer) *flightrec.Recording {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := flightrec.ReadRecording(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// End-to-end over real TCP: one controller, two agents with deliberately
// skewed clocks (+10s and −7s), one command each, sat 5's held unacked
// until sat 6's is acked. The merged timeline must put every command in a
// single causal tree spanning both processes, with apply timestamps pulled
// back inside the controller's send→ack bracket by the skew correction —
// and each process's instant events, which ride the same ring on the same
// clock, must stay inside the spans they were emitted in.
func TestMergeControllerTwoAgents(t *testing.T) {
	ctlTr := procTracer("ctl", 0)
	aTr := procTracer("sat-5", 10*time.Second)
	bTr := procTracer("sat-6", -7*time.Second)

	c, err := southbound.ListenController("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Tracer = ctlTr

	held := make(chan struct{}, 1)
	a, err := southbound.DialAgentOptions(c.Addr(), 5, time.Second, southbound.AgentOptions{Tracer: aTr})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	release := make(chan struct{})
	// Deferred after Close, so it runs first: a failing test never leaves
	// Close waiting on the held callback.
	unhold := sync.OnceFunc(func() { close(release) })
	defer unhold()
	a.OnCommand = func(m *southbound.Message) {
		// Inside the agent.apply span, on the agent's (+10s) clock.
		aTr.Emit("southbound.agent_reconnect", "sat", "5", "attempt", "1")
		held <- struct{}{}
		<-release // hold the command unacked until sat 6's is acked
	}
	b, err := southbound.DialAgentOptions(c.Addr(), 6, time.Second, southbound.AgentOptions{Tracer: bTr})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	emit := ctlTr.StartSpan("mpc.emit", "round", "0")
	if err := c.Send(raise(5, 6, emit.Context())); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(raise(6, 5, emit.Context())); err != nil {
		t.Fatal(err)
	}
	// Inside the mpc.emit root, on the controller's clock.
	ctlTr.Emit("southbound.command_applied", "sat", "6", "type", "slot-delta")
	emit.End()

	// Sat 5's command is held inside its apply until sat 6's is acked:
	// only the held one is still pending.
	select {
	case <-held:
	case <-time.After(2 * time.Second):
		t.Fatal("sat 5 never started applying its command")
	}
	for deadline := time.Now().Add(2 * time.Second); c.PendingAcks() > 1; {
		if time.Now().After(deadline) {
			t.Fatal("sat 6's command never acked")
		}
		time.Sleep(2 * time.Millisecond)
	}
	unhold()
	for deadline := time.Now().Add(2 * time.Second); c.PendingAcks() > 0; {
		if time.Now().After(deadline) {
			t.Fatal("commands never acked")
		}
		time.Sleep(2 * time.Millisecond)
	}

	m := Merge(dumpOf(t, ctlTr), dumpOf(t, aTr), dumpOf(t, bTr))
	anchor, offsets := m.Offsets()
	if anchor != "ctl" {
		t.Fatalf("anchor = %q, want ctl", anchor)
	}
	// Corrections should recover the injected skews to within real network
	// and scheduling noise (well under a second here).
	if off := offsets["sat-5"]; off < 9_500_000 || off > 10_500_000 {
		t.Errorf("sat-5 offset = %dµs, want ≈ +10s", off)
	}
	if off := offsets["sat-6"]; off < -7_500_000 || off > -6_500_000 {
		t.Errorf("sat-6 offset = %dµs, want ≈ −7s", off)
	}

	// Index merged spans.
	bySpan := map[string]Span{}
	perCmd := map[string][]Span{} // trace/seq → spans
	for _, s := range m.Spans {
		if s.Span != "" {
			bySpan[s.Span] = s
		}
		if seq := s.Attrs["seq"]; seq != "" && s.Trace != "" {
			perCmd[s.Trace+"/"+seq] = append(perCmd[s.Trace+"/"+seq], s)
		}
	}
	if len(perCmd) != 2 {
		t.Fatalf("merged commands = %d, want 2", len(perCmd))
	}
	for key, spans := range perCmd {
		var send, apply, ack *Span
		procs := map[string]bool{}
		for i := range spans {
			s := &spans[i]
			procs[s.Proc] = true
			switch s.Name {
			case "sb.send":
				send = s
			case "agent.apply":
				apply = s
			case "sb.ack":
				ack = s
			}
		}
		if send == nil || apply == nil || ack == nil || len(spans) != 3 {
			t.Fatalf("command %s is not one send, apply and ack: %+v", key, spans)
		}
		if len(procs) < 2 {
			t.Errorf("command %s spans only %v, want 2 processes", key, procs)
		}
		// One causal tree: apply and ack are children of the send; the send
		// is a child of the mpc.emit root.
		if apply.Parent != send.Span || ack.Parent != send.Span {
			t.Errorf("command %s: apply/ack parents %s/%s, want send %s",
				key, apply.Parent, ack.Parent, send.Span)
		}
		root, ok := bySpan[send.Parent]
		if !ok || root.Name != "mpc.emit" {
			t.Errorf("command %s: send parent %q is not the mpc.emit root", key, send.Parent)
		}
		// Skew-corrected causality: the agent's apply sits inside the
		// controller's send→ack bracket (±5ms slack for the half-RTT the
		// NTP estimate cannot see).
		slack := int64(5_000)
		if apply.StartUS < send.StartUS-slack || apply.StartUS+apply.DurUS > ack.StartUS+ack.DurUS+slack {
			t.Errorf("command %s: corrected apply [%d,%d] outside send→ack [%d,%d]",
				key, apply.StartUS, apply.StartUS+apply.DurUS, send.StartUS, ack.StartUS+ack.DurUS)
		}
	}
	// One timeline: after correction every event still lies inside the
	// span of its own process that enclosed it when it was emitted — the
	// agent's inside its apply (pulled back 10 s with it), the
	// controller's inside the mpc.emit root.
	enclosing := map[string]string{
		"southbound.agent_reconnect": "agent.apply",
		"southbound.command_applied": "mpc.emit",
	}
	if len(m.Events) != 2 {
		t.Fatalf("merged events = %+v, want 2", m.Events)
	}
	for _, e := range m.Events {
		if e.DurUS != 0 || e.Span != "" {
			t.Errorf("event %s carries span fields: %+v", e.Name, e)
		}
		inside := false
		for _, s := range m.Spans {
			if s.Proc == e.Proc && s.Name == enclosing[e.Name] &&
				s.StartUS <= e.StartUS && e.StartUS <= s.StartUS+s.DurUS+1 { // start and duration each truncate to 1µs
				inside = true
			}
		}
		if !inside {
			t.Errorf("event %s (proc %s, t=%d) is outside every %s span of its process",
				e.Name, e.Proc, e.StartUS, enclosing[e.Name])
		}
	}
	// Raw clocks put the agent's event 10 s after the controller's; on the
	// merged timeline they are within the sub-second command window.
	if d := m.Events[1].StartUS - m.Events[0].StartUS; d < -1_000_000 || d > 1_000_000 {
		t.Errorf("corrected events %dµs apart, want < 1s", d)
	}

	// Chrome rendering: three named processes, flow arrows crossing the
	// boundary, valid JSON.
	var chrome bytes.Buffer
	if err := m.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	var arr []map[string]any
	if err := json.Unmarshal(chrome.Bytes(), &arr); err != nil {
		t.Fatalf("chrome trace invalid JSON: %v", err)
	}
	names, flows, instants := 0, 0, 0
	for _, ev := range arr {
		switch ev["ph"] {
		case "M":
			names++
		case "s":
			flows++
		case "i":
			instants++
		}
	}
	if names != 3 {
		t.Errorf("process_name records = %d, want 3", names)
	}
	if flows == 0 {
		t.Error("no flow arrows in chrome trace")
	}
	if instants != 2 {
		t.Errorf("chrome instant events = %d, want 2", instants)
	}

	// Canonical form is a pure function of the merged dumps.
	var c1, c2 bytes.Buffer
	if err := m.WriteCanonical(&c1); err != nil {
		t.Fatal(err)
	}
	if err := Merge(dumpOf(t, ctlTr), dumpOf(t, aTr), dumpOf(t, bTr)).WriteCanonical(&c2); err != nil {
		t.Fatal(err)
	}
	if c1.String() != c2.String() {
		t.Error("canonical form differs across identical merges")
	}
	if !strings.Contains(c1.String(), "agent.apply") || !strings.Contains(c1.String(), "parent=") {
		t.Errorf("canonical form missing expected content:\n%s", c1.String())
	}
	// The events print after the traces, in timeline order, attributes
	// sorted by key.
	tail := c1.String()[strings.Index(c1.String(), "events n=2\n"):]
	lines := strings.Split(strings.TrimSpace(tail), "\n")
	if len(lines) != 3 ||
		!strings.HasPrefix(lines[1], "  "+m.Events[0].Name+" proc="+m.Events[0].Proc+" t=") ||
		!strings.HasPrefix(lines[2], "  "+m.Events[1].Name+" proc="+m.Events[1].Proc+" t=") ||
		!strings.Contains(tail, "southbound.agent_reconnect proc=sat-5 ") ||
		!strings.Contains(tail, " attempt=1 sat=5\n") {
		t.Errorf("canonical events section:\n%s", tail)
	}
}

// Four processes over real TCP: one controller and three agents whose
// clocks are skewed asymmetrically (far ahead, far behind, slightly
// ahead). Multiple commands per agent give the NTP-style estimator
// several samples to take the median of; sat 7 holds its last command
// unacked until every other agent has acked, so one of its samples has a
// long apply that the median must outvote. The merge must recover every skew independently, keep each
// command's causal tree intact, and order the skew-corrected applies
// consistently with the real send order even though the raw agent clocks
// disagree by over a minute.
func TestMergeFourProcessesAsymmetricSkew(t *testing.T) {
	ctlTr := procTracer("ctl", 0)
	skews := map[uint32]time.Duration{
		7: 25 * time.Second,  // far ahead
		8: -40 * time.Second, // far behind
		9: 3 * time.Second,   // slightly ahead
	}
	trs := map[uint32]*obs.Tracer{}

	c, err := southbound.ListenController("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Tracer = ctlTr

	held := make(chan struct{}, 1)
	release := make(chan struct{})
	unhold := sync.OnceFunc(func() { close(release) })
	for _, id := range []uint32{7, 8, 9} {
		tr := procTracer("sat-"+string(rune('0'+id)), skews[id])
		trs[id] = tr
		a, err := southbound.DialAgentOptions(c.Addr(), id, time.Second, southbound.AgentOptions{Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		applies := 0 // read loop only
		a.OnCommand = func(m *southbound.Message) {
			if applies++; id == 7 && applies == 3 {
				held <- struct{}{}
				<-release
			}
		}
	}
	// Deferred after every Close, so it runs first: a failing test never
	// leaves Close waiting on the held callback.
	defer unhold()

	// Three commands per agent, interleaved round-robin so every agent's
	// offset comes from samples spread across the run.
	emit := ctlTr.StartSpan("mpc.emit", "round", "0")
	for i := 0; i < 3; i++ {
		for _, id := range []uint32{7, 8, 9} {
			if err := c.Send(raise(id, id+1, emit.Context())); err != nil {
				t.Fatal(err)
			}
		}
	}
	emit.End()
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("sat 7 never started applying its last command")
	}
	for deadline := time.Now().Add(5 * time.Second); c.PendingAcks() > 1; {
		if time.Now().After(deadline) {
			t.Fatal("sats 8 and 9 never acked their commands")
		}
		time.Sleep(2 * time.Millisecond)
	}
	unhold()
	for deadline := time.Now().Add(5 * time.Second); c.PendingAcks() > 0; {
		if time.Now().After(deadline) {
			t.Fatal("commands never acked")
		}
		time.Sleep(2 * time.Millisecond)
	}

	dumps := []*flightrec.Recording{dumpOf(t, ctlTr)}
	for _, id := range []uint32{7, 8, 9} {
		dumps = append(dumps, dumpOf(t, trs[id]))
	}
	m := Merge(dumps...)
	anchor, offsets := m.Offsets()
	if anchor != "ctl" {
		t.Fatalf("anchor = %q, want ctl", anchor)
	}
	if len(offsets) != 4 {
		t.Fatalf("offsets for %d processes, want 4: %v", len(offsets), offsets)
	}
	// Each skew recovered independently, within network/scheduling noise.
	wantUS := map[string]int64{"sat-7": 25_000_000, "sat-8": -40_000_000, "sat-9": 3_000_000}
	for proc, want := range wantUS {
		got := offsets[proc]
		if got < want-500_000 || got > want+500_000 {
			t.Errorf("%s offset = %dµs, want ≈ %dµs", proc, got, want)
		}
	}

	// Every command forms a complete cross-process tree, and the corrected
	// apply lies inside the controller's send→ack bracket.
	perCmd := map[string][]Span{}
	for _, s := range m.Spans {
		if seq := s.Attrs["seq"]; seq != "" && s.Trace != "" {
			perCmd[s.Trace+"/"+seq] = append(perCmd[s.Trace+"/"+seq], s)
		}
	}
	if len(perCmd) != 9 {
		t.Fatalf("merged commands = %d, want 9", len(perCmd))
	}
	applyByProc := map[string][]int64{}
	slack := int64(5_000)
	for key, spans := range perCmd {
		var send, apply, ack *Span
		for i := range spans {
			s := &spans[i]
			switch s.Name {
			case "sb.send":
				send = s
			case "agent.apply":
				apply = s
			case "sb.ack":
				ack = s
			}
		}
		if send == nil || apply == nil || ack == nil || len(spans) != 3 {
			t.Fatalf("command %s is not one send, apply and ack: %+v", key, spans)
		}
		if apply.Proc == send.Proc {
			t.Errorf("command %s: apply did not cross a process boundary", key)
		}
		if apply.Parent != send.Span {
			t.Errorf("command %s: apply parent %s, want send %s", key, apply.Parent, send.Span)
		}
		if apply.StartUS < send.StartUS-slack || apply.StartUS+apply.DurUS > ack.StartUS+ack.DurUS+slack {
			t.Errorf("command %s: corrected apply [%d,%d] outside send→ack [%d,%d]",
				key, apply.StartUS, apply.StartUS+apply.DurUS, send.StartUS, ack.StartUS+ack.DurUS)
		}
		applyByProc[apply.Proc] = append(applyByProc[apply.Proc], apply.StartUS)
	}
	// Raw clocks disagree by up to 65s, but after correction every agent's
	// applies land within the controller's sub-second command window — the
	// whole point of merging on one timeline.
	var lo, hi int64
	first := true
	for proc, starts := range applyByProc {
		if len(starts) != 3 {
			t.Fatalf("%s applied %d commands, want 3", proc, len(starts))
		}
		for _, s := range starts {
			if first || s < lo {
				lo = s
			}
			if first || s > hi {
				hi = s
			}
			first = false
		}
	}
	if hi-lo > 2_000_000 {
		t.Errorf("corrected applies span %dµs across agents, want < 2s", hi-lo)
	}

	// Canonical form is stable across re-merges of the same dumps.
	var c1, c2 bytes.Buffer
	if err := m.WriteCanonical(&c1); err != nil {
		t.Fatal(err)
	}
	if err := Merge(dumps...).WriteCanonical(&c2); err != nil {
		t.Fatal(err)
	}
	if c1.String() != c2.String() {
		t.Error("canonical form differs across identical merges")
	}
}
