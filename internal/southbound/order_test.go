package southbound

import (
	"net"
	"testing"
	"time"
)

// Regression for retransmission order following pending-map iteration
// order: sweeps and re-registration resends are wire-visible, so they
// must walk pending commands in ascending seq order on every run.
func TestSweepRetransmitsInSeqOrder(t *testing.T) {
	c, err := ListenController("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	vc := newVclock()
	c.Clock = vc.Now

	// A connected-but-silent agent: commands go out, acks never come back.
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	c.mu.Lock()
	c.agents[9] = server
	now := vc.Now()
	const n = 16
	for seq := uint32(1); seq <= n; seq++ {
		c.pending[seq] = pendingCmd{
			msg:       &Message{Type: MsgSlotDelta, SatID: 9, Seq: seq},
			firstSent: now, lastSent: now, attempts: 1,
		}
	}
	c.mu.Unlock()

	for run := 0; run < 5; run++ {
		vc.Advance(c.retransmitInterval() + time.Millisecond)
		c.mu.Lock()
		resends, failed := c.sweepAckTimeoutsLocked(vc.Now())
		// Undo attempt and age accounting so every run retransmits the
		// full set instead of aging out past AckTimeout.
		for seq, p := range c.pending {
			p.attempts = 1
			p.firstSent = vc.Now()
			c.pending[seq] = p
		}
		c.mu.Unlock()
		if len(failed) != 0 {
			t.Fatalf("run %d: unexpected failures %v", run, failed)
		}
		if len(resends) != n {
			t.Fatalf("run %d: %d resends, want %d", run, len(resends), n)
		}
		for i, r := range resends {
			if r.msg.Seq != uint32(i+1) {
				t.Fatalf("run %d: resend %d has seq %d, want %d", run, i, r.msg.Seq, i+1)
			}
		}
	}
}

// Abandoned commands must also surface in seq order: OnCommandFailed
// callbacks and ack_timeout flight events are part of observable output.
func TestAckTimeoutFailuresInSeqOrder(t *testing.T) {
	c, err := ListenController("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	vc := newVclock()
	c.Clock = vc.Now

	c.mu.Lock()
	now := vc.Now()
	const n = 16
	for seq := uint32(1); seq <= n; seq++ {
		c.pending[seq] = pendingCmd{
			msg:       &Message{Type: MsgSlotDelta, SatID: 9, Seq: seq},
			firstSent: now, lastSent: now, attempts: 1,
		}
	}
	c.mu.Unlock()

	vc.Advance(c.ackTimeout() + time.Millisecond)
	c.mu.Lock()
	resends, failed := c.sweepAckTimeoutsLocked(vc.Now())
	c.mu.Unlock()
	if len(resends) != 0 {
		t.Fatalf("unexpected resends %v", resends)
	}
	if len(failed) != n {
		t.Fatalf("%d failures, want %d", len(failed), n)
	}
	for i, m := range failed {
		if m.Seq != uint32(i+1) {
			t.Fatalf("failure %d has seq %d, want %d", i, m.Seq, i+1)
		}
	}
}
