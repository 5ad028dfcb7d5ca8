package main

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/fleet"
)

func TestRenderTop(t *testing.T) {
	v := &fleet.View{
		Agents: []fleet.AgentView{
			{ID: 1, State: fleet.StateHealthy, LastSeq: 12, Reports: 12, Bytes: 2048, SilenceMS: 300, Series: 9},
			{ID: 2, State: fleet.StateSilent, LastSeq: 4, Reports: 4, Bytes: 512, Gaps: 1, SilenceMS: 12000, Series: 9},
		},
		States:       map[string]int{"healthy": 1, "silent": 1},
		DecodeErrors: 0,
		Totals: []obs.Sample{
			{Name: "lat_s", Kind: obs.KindHistogram, Count: 10, Sum: 2.5},
			{Name: "pkts_total", Kind: obs.KindCounter, Value: 61,
				Labels: map[string]string{"dir": "rx"}},
		},
	}
	events := []obs.Event{
		{Seq: 3, StartUS: 1_500_000, Name: "fleet.agent_silent", Instant: true,
			Attrs: map[string]string{"agent": "2", "from": "lagging", "to": "silent"}},
	}
	var sb strings.Builder
	renderTop(&sb, "127.0.0.1:9100", v, events, 10)
	out := sb.String()

	for _, want := range []string{
		"2 agents",
		"1 healthy",
		"1 silent",
		"pkts_total{dir=rx}",
		"61",
		"count=10 mean=0.25",
		"agent_silent",
		"agent=2",
		"2.0K", // agent 1's byte column
	} {
		if !strings.Contains(out, want) {
			t.Errorf("renderTop output missing %q:\n%s", want, out)
		}
	}
	// Agent rows appear in ID order.
	if strings.Index(out, "healthy") > strings.Index(out, "silent ") {
		t.Errorf("agent rows out of order:\n%s", out)
	}
}

func TestSeriesLabelAndSize(t *testing.T) {
	s := obs.Sample{Name: "m", Labels: map[string]string{"b": "2", "a": "1"}}
	if got := seriesLabel(&s); got != "m{a=1,b=2}" {
		t.Errorf("seriesLabel = %q", got)
	}
	for n, want := range map[uint64]string{5: "5", 2048: "2.0K", 3 << 20: "3.0M"} {
		if got := sizeOf(n); got != want {
			t.Errorf("sizeOf(%d) = %q, want %q", n, got, want)
		}
	}
}
