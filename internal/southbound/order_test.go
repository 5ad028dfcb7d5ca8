package southbound

import (
	"testing"
	"time"
)

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
		c.pending[seq] = pendingCmd{typ: MsgSlotDelta, sat: 9, sent: now}
	}
	c.mu.Unlock()

	vc.Advance(c.ackTimeout() + time.Millisecond)
	c.mu.Lock()
	failed := c.sweepAckTimeoutsLocked(vc.Now())
	c.mu.Unlock()
	if len(failed) != n {
		t.Fatalf("%d failures, want %d", len(failed), n)
	}
	for i, m := range failed {
		if m.Seq != uint32(i+1) {
			t.Fatalf("failure %d has seq %d, want %d", i, m.Seq, i+1)
		}
	}
}
