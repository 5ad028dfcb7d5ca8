package southbound

import (
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

// vclock is an injectable wall clock for deterministic reliability tests.
type vclock struct {
	mu sync.Mutex
	t  time.Time
}

func newVclock() *vclock { return &vclock{t: time.Unix(1000, 0)} }

func (v *vclock) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.t
}

func (v *vclock) Advance(d time.Duration) {
	v.mu.Lock()
	v.t = v.t.Add(d)
	v.mu.Unlock()
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}

// Regression for the double-report bug: a command whose synchronous write
// fails used to stay in the pending-ack table and be re-reported as an
// ack timeout later. The write error must clear the entry.
func TestSendWriteErrorClearsPending(t *testing.T) {
	c, err := ListenController("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	vc := newVclock()
	c.Clock = vc.Now

	// Register a fake agent whose connection is already closed so the
	// write fails synchronously.
	client, server := net.Pipe()
	client.Close()
	server.Close()
	c.mu.Lock()
	c.agents[7] = server
	c.mu.Unlock()

	if err := c.Send(delta(7, 8)); err == nil {
		t.Fatal("Send on closed conn succeeded")
	}
	if n := c.PendingAcks(); n != 0 {
		t.Fatalf("pending after failed write = %d, want 0", n)
	}
	// The failed command must not resurface as an ack timeout.
	var failed []*Message
	c.OnCommandFailed = func(m *Message) { failed = append(failed, m) }
	vc.Advance(c.ackTimeout() + time.Second)
	c.SweepPending()
	if len(failed) != 0 {
		t.Fatalf("failed write double-reported as ack timeout: %v", failed)
	}
	if v := c.reg.Counter(MetricAckTimeouts).Value(); v != 0 {
		t.Fatalf("ack_timeouts = %d, want 0", v)
	}
}

// Regression for the silent-untracked bug: commands sent while the
// pending table is full are written but get no ack accounting; that loss
// of tracking must be counted and no longer silent.
func TestUntrackedCommandCounted(t *testing.T) {
	c, err := ListenController("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	vc := newVclock()
	c.Clock = vc.Now

	applied := make(chan *Message, 1)
	a, err := DialAgent(c.Addr(), 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.OnCommand = func(m *Message) { applied <- m }

	// Fill the pending table to its cap (white-box).
	c.mu.Lock()
	for i := 0; i < maxPendingAcks; i++ {
		seq := uint32(1_000_000 + i)
		c.pending[seq] = pendingCmd{
			msg:       &Message{Type: MsgSlotDelta, SatID: 99, Seq: seq},
			firstSent: vc.Now(), lastSent: vc.Now(), attempts: 1,
		}
	}
	c.mu.Unlock()

	if err := c.Send(delta(3, 1)); err != nil {
		t.Fatal(err)
	}
	if v := c.reg.Counter(MetricUntracked).Value(); v != 1 {
		t.Fatalf("untracked = %d, want 1", v)
	}
	// The command itself is still delivered.
	select {
	case <-applied:
	case <-time.After(2 * time.Second):
		t.Fatal("untracked command never delivered")
	}
	if n := c.PendingAcks(); n != maxPendingAcks {
		t.Fatalf("pending = %d, want %d (untracked command must not be tracked)", n, maxPendingAcks)
	}
}

// At-least-once delivery: unacked commands are retransmitted up to
// MaxRetransmits, the agent deduplicates by Seq, and the command is
// applied exactly once.
func TestRetransmitAndAgentDedup(t *testing.T) {
	c, err := ListenController("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	vc := newVclock()
	c.Clock = vc.Now

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var mu sync.Mutex
	appliedCount := 0
	a, err := DialAgent(c.Addr(), 5, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.OnCommand = func(m *Message) {
		mu.Lock()
		appliedCount++
		mu.Unlock()
		entered <- struct{}{}
		<-release
	}

	if err := c.Send(delta(5, 4, 5, 6)); err != nil {
		t.Fatal(err)
	}
	<-entered // agent is holding the command unacked

	// Three sweeps, one retransmit interval apart → MaxRetransmits
	// resends; the fourth sweep must not resend (cap reached).
	for i := 0; i < c.maxRetransmits()+1; i++ {
		vc.Advance(c.retransmitInterval())
		c.SweepPending()
	}
	waitUntil(t, 2*time.Second, func() bool {
		return c.reg.Counter(MetricRetransmits).Value() == int64(c.maxRetransmits())
	}, "retransmit count never reached cap")
	close(release) // agent acks the original, then dedup-acks the copies

	waitUntil(t, 2*time.Second, func() bool { return c.PendingAcks() == 0 },
		"pending command never acked")
	mu.Lock()
	defer mu.Unlock()
	if appliedCount != 1 {
		t.Fatalf("command applied %d times, want 1 (dedup)", appliedCount)
	}
}

// Agent reconnect with backoff plus resend-on-reregistration: a command
// in flight across a connection drop is retransmitted on the new session
// and still applied exactly once.
func TestAgentReconnectResendsPending(t *testing.T) {
	c, err := ListenController("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var mu sync.Mutex
	appliedCount := 0
	a, err := DialAgentOptions(c.Addr(), 9, time.Second, AgentOptions{
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.OnCommand = func(m *Message) {
		mu.Lock()
		appliedCount++
		mu.Unlock()
		entered <- struct{}{}
		<-release
	}

	if err := c.Send(delta(9, 10)); err != nil {
		t.Fatal(err)
	}
	<-entered
	a.DropConn() // sever the session while the command is unacked
	close(release)

	waitUntil(t, 5*time.Second, func() bool { return c.Registrations(9) >= 2 },
		"agent never re-registered")
	waitUntil(t, 5*time.Second, func() bool { return c.PendingAcks() == 0 },
		"pending command never acked after reconnect")
	if a.Reconnects() < 1 {
		t.Fatalf("agent reconnects = %d, want ≥1", a.Reconnects())
	}
	mu.Lock()
	defer mu.Unlock()
	if appliedCount != 1 {
		t.Fatalf("command applied %d times across reconnect, want 1", appliedCount)
	}
}

// The jitter source exists from the first reconnect delay on, not from the
// dial: an agent that served a session and never lost it holds none, and the
// delays drawn afterwards are the ones a source made at dial time would have
// given (Seed, else SatID+1), so two agents with one seed back off alike.
func TestAgentJitterSourceIsLazy(t *testing.T) {
	c, err := ListenController("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dial := func(satID uint32, seed int64) *Agent {
		a, err := DialAgentOptions(c.Addr(), satID, time.Second, AgentOptions{
			BackoffBase: 10 * time.Millisecond, BackoffMax: 30 * time.Millisecond, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Send(delta(satID, 1)); err != nil {
			t.Fatal(err)
		}
		return a
	}
	agents := []*Agent{dial(40, 7), dial(41, 7), dial(42, 0)}
	waitUntil(t, 5*time.Second, func() bool { return c.PendingAcks() == 0 }, "commands never acked")
	for _, a := range agents {
		a.Close() // the read loop, the source's only user, has exited
		if a.rng != nil {
			t.Errorf("sat %d never reconnected and holds a jitter source", a.SatID)
		}
	}
	for i, seed := range []int64{7, 7, 43} {
		ref := rand.New(rand.NewSource(seed))
		for attempt, capped := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond} {
			want := time.Duration(float64(capped) * (1 + 0.5*ref.Float64()))
			if got := agents[i].backoffDelay(attempt); got != want {
				t.Errorf("sat %d attempt %d: delay %v, want %v", agents[i].SatID, attempt, got, want)
			}
		}
	}
}

// Graceful degradation: a command abandoned after AckTimeout marks the
// satellite unreachable (for the control loop to hand to MPC repair as a
// failed node) and fires OnCommandFailed, instead of erroring forever.
func TestAckTimeoutMarksUnreachable(t *testing.T) {
	c, err := ListenController("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	vc := newVclock()
	c.Clock = vc.Now
	var mu sync.Mutex
	var failed []*Message
	c.OnCommandFailed = func(m *Message) {
		mu.Lock()
		failed = append(failed, m)
		mu.Unlock()
	}

	// A raw agent that registers but never acks commands.
	conn, err := net.DialTimeout("tcp", c.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteMessage(conn, &Message{Type: MsgHello, SatID: 11, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(conn); err != nil { // hello-ack
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool { return c.AgentCount() == 1 },
		"agent never registered")

	if err := c.Send(delta(11, 2)); err != nil {
		t.Fatal(err)
	}
	vc.Advance(c.ackTimeout() + time.Second)
	c.SweepPending()

	mu.Lock()
	nFailed := len(failed)
	mu.Unlock()
	if nFailed != 1 {
		t.Fatalf("OnCommandFailed fired %d times, want 1", nFailed)
	}
	if v := c.reg.Counter(MetricAckTimeouts).Value(); v != 1 {
		t.Fatalf("ack_timeouts = %d, want 1", v)
	}
	if got := c.TakeUnreachable(); len(got) != 1 || got[0] != 11 {
		t.Fatalf("TakeUnreachable = %v, want [11]", got)
	}
	if got := c.TakeUnreachable(); len(got) != 0 {
		t.Fatalf("TakeUnreachable not drained: %v", got)
	}
	if n := c.PendingAcks(); n != 0 {
		t.Fatalf("pending after abandon = %d, want 0", n)
	}
}

// The pending-ack sweep is rate-limited to one scan per
// RetransmitInterval/2, and lastSweep only advances when a scan runs.
func TestSweepRateLimit(t *testing.T) {
	c, err := ListenController("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	vc := newVclock()
	c.Clock = vc.Now

	// One pending entry for a disconnected sat: scans run but never
	// retransmit, so lastSweep is the only observable.
	c.mu.Lock()
	c.pending[99] = pendingCmd{
		msg:       &Message{Type: MsgSlotDelta, SatID: 1, Seq: 99},
		firstSent: vc.Now(), lastSent: vc.Now(), attempts: 1,
	}
	c.mu.Unlock()
	lastSweep := func() time.Time {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.lastSweep
	}

	c.SweepPending()
	t0 := lastSweep()
	if !t0.Equal(vc.Now()) {
		t.Fatalf("first sweep did not run: lastSweep=%v", t0)
	}

	half := c.retransmitInterval() / 2
	vc.Advance(half - time.Millisecond)
	c.SweepPending()
	if got := lastSweep(); !got.Equal(t0) {
		t.Fatalf("sweep ran inside the rate-limit window: lastSweep advanced to %v", got)
	}

	vc.Advance(time.Millisecond) // exactly interval/2 since t0
	c.SweepPending()
	if got := lastSweep(); !got.Equal(vc.Now()) {
		t.Fatalf("sweep did not run at interval/2: lastSweep=%v now=%v", got, vc.Now())
	}

	// An empty pending table short-circuits without touching lastSweep.
	c.mu.Lock()
	delete(c.pending, 99)
	c.mu.Unlock()
	t1 := lastSweep()
	vc.Advance(10 * c.retransmitInterval())
	c.SweepPending()
	if got := lastSweep(); !got.Equal(t1) {
		t.Fatalf("empty sweep advanced lastSweep to %v", got)
	}
}
