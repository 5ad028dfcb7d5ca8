package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/fleet"
)

func TestRenderTop(t *testing.T) {
	agent := func(id string, name string, kind obs.Kind, v float64, kvs ...string) obs.Sample {
		labels := map[string]string{"agent": id}
		for i := 0; i < len(kvs); i += 2 {
			labels[kvs[i]] = kvs[i+1]
		}
		return obs.Sample{Name: name, Kind: kind, Labels: labels, Value: v}
	}
	hist := func(id string, count int64, sum float64) obs.Sample {
		return obs.Sample{Name: "lat_s", Kind: obs.KindHistogram, Labels: map[string]string{"agent": id},
			Count: count, Sum: sum, Bounds: []float64{1}, Buckets: []int64{count, 0}}
	}
	// A /metrics.json document: the controller's own series, then the
	// rollup's, agent 2 silent.
	samples := []obs.Sample{
		{Name: "tinyleo_southbound_agents_connected", Kind: obs.KindGauge, Value: 1},
		{Name: fleet.MetricDecodeErrors, Kind: obs.KindCounter},
		{Name: fleet.MetricAgents, Kind: obs.KindGauge, Value: 2},
		{Name: fleet.MetricAgentsSilent, Kind: obs.KindGauge, Value: 1},
	}
	for _, a := range []struct {
		id                                   string
		state, reports, bytes, gaps, silence float64
		pkts                                 float64
		count                                int64
		sum                                  float64
	}{
		{"1", 0, 12, 2048, 0, 0.3, 40, 6, 1.5},
		{"2", 2, 4, 512, 1, 12, 21, 4, 1},
	} {
		samples = append(samples,
			agent(a.id, fleet.MetricReports, obs.KindCounter, a.reports),
			agent(a.id, fleet.MetricReportBytes, obs.KindCounter, a.bytes),
			agent(a.id, fleet.MetricGaps, obs.KindCounter, a.gaps),
			agent(a.id, fleet.MetricAgentState, obs.KindGauge, a.state),
			agent(a.id, fleet.MetricAgentSilence, obs.KindGauge, a.silence),
			agent(a.id, "pkts_total", obs.KindCounter, a.pkts, "dir", "rx"),
			hist(a.id, a.count, a.sum))
	}
	events := []obs.Event{
		{Seq: 3, StartUS: 1_500_000, Name: "fleet.agent_silent", Instant: true,
			Attrs: map[string]string{"agent": "2", "from": "lagging", "to": "silent"}},
	}
	var sb strings.Builder
	renderTop(&sb, "127.0.0.1:9100", samples, events, 10)
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
		"2.0K",        // agent 1's byte column
		"12.0s",       // agent 2's silence
		"of 5 series", // per-agent series summed, the controller's left out
	} {
		if !strings.Contains(out, want) {
			t.Errorf("renderTop output missing %q:\n%s", want, out)
		}
	}
	for _, absent := range []string{"SEQ", "agents_connected", fleet.MetricAgentState} {
		if strings.Contains(out, absent) {
			t.Errorf("renderTop output has %q:\n%s", absent, out)
		}
	}
	// SERIES counts each agent's own series (pkts_total, lat_s).
	if rows := agentRows(samples); len(rows) != 2 || rows[0].series != 2 || rows[1].gaps != 1 {
		t.Errorf("agent rows = %+v", rows)
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

// TestTopRejectsLimitsItCannotHonour: `tinyleo-ctl top` with a non-positive
// -interval (time.Tick's nil channel: one frame, then a hang forever) or a
// negative -max-events (a slice past the end of the event list) or
// -max-series exits 2 with its usage before the first frame, even against a
// controller that answers. The test runs runTop in a child process, because
// it exits.
func TestTopRejectsLimitsItCannotHonour(t *testing.T) {
	if args := os.Getenv("TINYLEO_CTL_TOP_ARGS"); args != "" {
		runTop(strings.Fields(args))
		return
	}
	srv := httptest.NewServer(obs.NewHandler(obs.NewRegistry(true)))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	for _, limits := range []string{"-interval 0", "-interval -1s", "-max-events -1", "-max-series -1"} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestTopRejectsLimitsItCannotHonour$")
		cmd.Env = append(os.Environ(), "TINYLEO_CTL_TOP_ARGS=-addr "+addr+" "+limits)
		var stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = io.Discard, &stderr
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
			!strings.Contains(stderr.String(), "-max-events") || strings.Contains(stderr.String(), "panic") {
			t.Errorf("top %s: %v, want exit 2 with the usage; stderr:\n%s", limits, err, stderr.String())
		}
	}
}
