package southbound

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// The connected-agent gauge must track registration, disconnect, and
// reconnect, and the per-type message counters must record the protocol
// traffic of each phase.
func TestObsGaugeTracksDisconnectReconnect(t *testing.T) {
	c := startController(t)
	reg := c.Metrics()
	gauge := reg.Gauge(MetricConnectedAgents)

	a, err := DialAgent(c.Addr(), 4, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForAgents(1, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := gauge.Value(); got != 1 {
		t.Errorf("gauge after register = %v, want 1", got)
	}

	// Disconnect: gauge falls back to 0.
	a.Close()
	waitFor(t, "deregistration", func() bool { return gauge.Value() == 0 })

	// Reconnect with the same satellite ID: gauge returns to 1 and the
	// hello/hello-ack counters record both handshakes.
	a2, err := DialAgent(c.Addr(), 4, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	waitFor(t, "re-registration", func() bool { return gauge.Value() == 1 })

	rxHello := reg.Counter(MetricMessages, "dir", "rx", "type", "hello").Value()
	txAck := reg.Counter(MetricMessages, "dir", "tx", "type", "hello-ack").Value()
	if rxHello != 2 || txAck != 2 {
		t.Errorf("handshake counters: rx-hello=%d tx-hello-ack=%d, want 2/2", rxHello, txAck)
	}
	if bytes := reg.Counter(MetricBytes, "dir", "rx").Value(); bytes <= 0 {
		t.Errorf("rx bytes = %d, want > 0", bytes)
	}
}

// A command/ack round trip must move the tx/rx counters and feed the ack
// RTT histogram.
func TestObsCountersAndAckRTT(t *testing.T) {
	c := startController(t)
	reg := c.Metrics()
	a, err := DialAgent(c.Addr(), 8, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	acked := make(chan struct{}, 4)
	c.OnAck = func(*Message) { acked <- struct{}{} }

	const sends = 3
	for i := 0; i < sends; i++ {
		if err := c.Send(delta(8, uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sends; i++ {
		select {
		case <-acked:
		case <-time.After(2 * time.Second):
			t.Fatal("no ack")
		}
	}

	if got := reg.Counter(MetricMessages, "dir", "tx", "type", "slot-delta").Value(); got != sends {
		t.Errorf("tx slot-delta = %d, want %d", got, sends)
	}
	if got := reg.Counter(MetricMessages, "dir", "rx", "type", "ack").Value(); got != sends {
		t.Errorf("rx ack = %d, want %d", got, sends)
	}
	rtt := reg.Histogram(MetricAckRTT, obs.DefBuckets)
	if rtt.Count() != sends {
		t.Errorf("ack RTT observations = %d, want %d", rtt.Count(), sends)
	}
	if rtt.Sum() <= 0 {
		t.Errorf("ack RTT sum = %v, want > 0", rtt.Sum())
	}

	// TotalMessages stays consistent with the registry.
	if c.TotalMessages() != obs.SumCounters(MetricMessages, reg) {
		t.Error("TotalMessages diverges from registry sum")
	}

	// And the controller registry exports as Prometheus text.
	var sb strings.Builder
	if err := obs.WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`tinyleo_southbound_messages_total{dir="tx",type="slot-delta"} 3`,
		`tinyleo_southbound_connected_agents 1`,
		`tinyleo_southbound_ack_rtt_seconds_count 3`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("prometheus output missing %q:\n%s", want, sb.String())
		}
	}
}

// The agent-side counters live on the process-wide default registry; a
// handshake from a dialed agent must move them even while other tests run
// (counters only grow, so assert the delta).
func TestObsAgentSideCounters(t *testing.T) {
	reg := obs.Default()
	wasEnabled := reg.Enabled()
	reg.SetEnabled(true)
	defer reg.SetEnabled(wasEnabled)

	txHello := reg.Counter("tinyleo_southbound_agent_messages_total", "dir", "tx", "type", "hello")
	rxAck := reg.Counter("tinyleo_southbound_agent_messages_total", "dir", "rx", "type", "hello-ack")
	txBefore, rxBefore := txHello.Value(), rxAck.Value()

	c := startController(t)
	a, err := DialAgent(c.Addr(), 3, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	waitFor(t, "agent hello counters", func() bool {
		return txHello.Value() == txBefore+1 && rxAck.Value() == rxBefore+1
	})
}
