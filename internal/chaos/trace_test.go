package chaos

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/flightrec"
	"repro/internal/obs/tracemerge"
)

// A traced campaign is reproducible end to end: same seed + scenario →
// byte-identical canonical merged trace, even though agent goroutines
// record spans concurrently. The canonical form renumbers span IDs in
// sorted order precisely because raw ID allocation order is racy; the
// underlying timestamps/attrs come from the virtual clock and the seeded
// command stream, so they are pure functions of the campaign.
func TestCampaignTraceDeterministic(t *testing.T) {
	runOnce := func() string {
		tr := &obs.Tracer{}
		c := testCampaign(detScenario, 42)
		c.Tracer = tr
		if _, err := Run(c); err != nil {
			t.Fatal(err)
		}
		var jsonl bytes.Buffer
		if err := tr.WriteJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
		d, err := flightrec.ReadRecording(&jsonl)
		if err != nil {
			t.Fatal(err)
		}
		var canon bytes.Buffer
		if err := tracemerge.Merge(d).WriteCanonical(&canon); err != nil {
			t.Fatal(err)
		}
		return canon.String()
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("same campaign produced different canonical traces:\n--- run 0 ---\n%s\n--- run 1 ---\n%s", a, b)
	}
	// The trace actually covers the southbound: emit roots, sends, applies
	// and acks.
	for _, want := range []string{"mpc.emit", "sb.send", "agent.apply", "sb.ack"} {
		if !strings.Contains(a, want) {
			t.Errorf("canonical trace has no %s span:\n%s", want, a)
		}
	}
	// Every apply hangs off a send: no orphaned cross-boundary spans.
	for _, line := range strings.Split(a, "\n") {
		if strings.Contains(line, "agent.apply") && strings.Contains(line, "parent=-") {
			t.Errorf("agent.apply without a causal parent: %s", line)
		}
	}

	// detScenario wedges an agent, and the command it holds is sent once
	// and abandoned: the flight recorder logs its ack_timeout, and its
	// sb.send has no sb.ack child — the late ack after the gate opens is
	// for a command the controller no longer tracks. Events reach only the
	// process tracer, so this third run records there and restores it
	// afterwards.
	tr := obs.Trace()
	flightrec.Enable(flightrec.Options{})
	t.Cleanup(func() {
		flightrec.Disable()
		tr.Disable()
		tr.SetClock(nil)
		tr.SetProcess("")
	})
	c := testCampaign(detScenario, 42)
	c.Tracer = tr
	if _, err := Run(c); err != nil {
		t.Fatal(err)
	}
	var jsonl bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	d, err := flightrec.ReadRecording(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	m := tracemerge.Merge(d)
	timeouts := 0
	for _, ev := range m.Events {
		if ev.Name != flightrec.EventName(flightrec.CompSouthbound, "ack_timeout") {
			continue
		}
		timeouts++
		var send *tracemerge.Span
		for i, s := range m.Spans {
			if s.Name == "sb.send" && s.Attrs["sat"] == ev.Attrs["sat"] && s.Attrs["seq"] == ev.Attrs["seq"] {
				send = &m.Spans[i]
			}
		}
		if send == nil {
			t.Errorf("ack_timeout for sat %s seq %s has no sb.send", ev.Attrs["sat"], ev.Attrs["seq"])
			continue
		}
		sends, acks := 0, 0
		for _, s := range m.Spans {
			if s.Attrs["sat"] != send.Attrs["sat"] || s.Attrs["seq"] != send.Attrs["seq"] {
				continue
			}
			switch {
			case s.Name == "sb.send":
				sends++
			case s.Name == "sb.ack" && s.Parent == send.Span:
				acks++
			}
		}
		if sends != 1 || acks != 0 {
			t.Errorf("abandoned sat %s seq %s: %d sb.send, %d sb.ack children; want 1 and 0",
				send.Attrs["sat"], send.Attrs["seq"], sends, acks)
		}
	}
	if timeouts == 0 {
		t.Error("the wedged agent's command left no ack_timeout event")
	}
}
