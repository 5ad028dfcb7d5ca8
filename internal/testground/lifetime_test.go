package testground

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/fleet"
	"repro/internal/southbound"
)

// internalGoroutines returns the stack of every live goroutine that runs,
// or was started by, code of this module's internal packages, keyed by
// goroutine id.
func internalGoroutines() map[string]string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(g, "repro/internal/") {
			continue
		}
		// The header line reads "goroutine <id> [<state>]:".
		if f := strings.Fields(g); len(f) > 1 {
			out[f[1]] = g
		}
	}
	return out
}

// TestCloseAndStopReturnTheirGoroutines starts every long-lived component
// with a background goroutine (a southbound controller with reconnecting
// agents, the telemetry server, the fleet reporter and the metrics poller),
// uses it, shuts it down, and checks that no goroutine it started is left.
func TestCloseAndStopReturnTheirGoroutines(t *testing.T) {
	before := internalGoroutines()

	ctl, err := southbound.ListenController("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	acked := make(chan uint32, 3)
	ctl.OnAck = func(m *southbound.Message) { acked <- m.SatID }
	var agents []*southbound.Agent
	for id := uint32(1); id <= 3; id++ {
		a, err := southbound.DialAgentOptions(ctl.Addr(), id, 2*time.Second, southbound.AgentOptions{
			BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
	}
	if err := ctl.WaitForAgents(3, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, a := range agents {
		cmd := &southbound.Message{Type: southbound.MsgSlotDelta, SatID: a.SatID, Payload: southbound.EncodeSlotDelta(nil)}
		if err := ctl.Send(cmd); err != nil {
			t.Fatal(err)
		}
	}
	for range agents {
		select {
		case <-acked:
		case <-time.After(2 * time.Second):
			t.Fatal("a command was not acked")
		}
	}

	// The fleet reporter ships over the first agent's session.
	rep := fleet.NewReporter(fleet.NewEncoder(ctl.Metrics()), agents[0].SendTelemetry)
	rep.Run(time.Millisecond)

	srv, err := obs.Serve("127.0.0.1:0", ctl.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	// The poller sweeps once before it first looks at its stop channel.
	poller := newMetricsPoller(srv.Addr(), time.Millisecond)
	poller.Stop()
	if err := poller.WriteRaw(filepath.Join(t.TempDir(), MetricsFile)); err != nil {
		t.Errorf("the metrics poller collected nothing from the telemetry server: %v", err)
	}
	rep.Stop()
	if err := srv.Close(); err != nil {
		t.Error(err)
	}
	// The controller goes first, so the agents are in their reconnect loops
	// when they are closed.
	if err := ctl.Close(); err != nil {
		t.Error(err)
	}
	for _, a := range agents {
		a.Close()
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		var leaked []string
		for id, stack := range internalGoroutines() {
			if _, ok := before[id]; !ok {
				leaked = append(leaked, stack)
			}
		}
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutine(s) outlived Close and Stop:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}
