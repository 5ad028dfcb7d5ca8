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
	// The trace actually covers the southbound: emit roots, sends, applies,
	// acks, and (detScenario wedges an agent) at least one retransmit.
	for _, want := range []string{"mpc.emit", "sb.send", "agent.apply", "sb.ack", "sb.retransmit"} {
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
}
