package southbound

import (
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
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
		c.pending[seq] = pendingCmd{typ: MsgSlotDelta, sat: 99, sent: vc.Now()}
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

// Delivery is TCP's and recovery is the snapshot re-sync: a command
// wedged on a session that then drops is retired by the satellite's next
// hello — not resent, not abandoned as an ack timeout, not a reason to
// call the satellite unreachable — and the enforcer's re-sync snapshot
// supersedes it.
func TestReregistrationRetiresPending(t *testing.T) {
	c, err := ListenController("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	vc := newVclock()
	c.Clock = vc.Now
	enf := NewDeltaEnforcer(c)

	a, err := DialAgentOptions(c.Addr(), 9, time.Second, AgentOptions{
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	wedged := make(chan struct{}, 1)
	release := make(chan struct{})
	// Deferred after Close, so it runs first: a failing test never leaves
	// Close waiting on a callback that is still wedged.
	unwedge := sync.OnceFunc(func() { close(release) })
	defer unwedge()
	view := &PeerSet{}
	var wedge atomic.Bool
	a.OnCommand = func(m *Message) {
		if wedge.Load() {
			// The apply dies with the session: held until the
			// connection drops, then never applied.
			wedged <- struct{}{}
			<-release
			return
		}
		if err := view.Apply(m); err != nil {
			t.Errorf("apply %s: %v", m.Type, err)
		}
	}

	if err := enf.Push(9, []uint32{17, 18}, nil, time.Time{}, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() bool { return c.PendingAcks() == 0 },
		"first snapshot never acked")
	wedge.Store(true)
	if err := enf.Push(9, nil, []uint32{17}, time.Time{}, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-wedged:
	case <-time.After(5 * time.Second):
		t.Fatal("the delta never reached the agent")
	}
	if n := c.PendingAcks(); n != 1 {
		t.Fatalf("pending with the delta wedged = %d, want 1", n)
	}
	wedge.Store(false)
	regs := c.Registrations(9)
	a.DropConn()
	unwedge()
	waitUntil(t, 5*time.Second, func() bool { return c.Registrations(9) > regs },
		"agent never re-registered")

	vc.Advance(c.ackTimeout() + time.Second)
	c.SweepPending()
	if v := c.reg.Counter(MetricAckTimeouts).Value(); v != 0 {
		t.Errorf("ack_timeouts = %d, want 0 (a retired command is not abandoned)", v)
	}
	if got := c.TakeUnreachable(); len(got) != 0 {
		t.Errorf("TakeUnreachable = %v, want none", got)
	}
	if n := c.PendingAcks(); n != 0 {
		t.Fatalf("pending after re-registration = %d, want 0", n)
	}
	if got := view.Peers(); !slices.Equal(got, []uint32{17, 18}) {
		t.Fatalf("agent applied %v before the re-sync, want the first snapshot [17 18]", got)
	}

	if n := enf.Resync(time.Time{}, obs.SpanContext{}); n != 1 {
		t.Fatalf("Resync sent %d snapshots, want 1", n)
	}
	waitUntil(t, 5*time.Second, func() bool { return c.PendingAcks() == 0 },
		"re-sync snapshot never acked")
	if got, want := view.Peers(), enf.Desired(9); !slices.Equal(got, want) {
		t.Fatalf("agent applied %v after the re-sync, enforcer desires %v", got, want)
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

// The pending-ack sweep is rate-limited to one scan per AckTimeout/10,
// and lastSweep only advances when a scan runs.
func TestSweepRateLimit(t *testing.T) {
	c, err := ListenController("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	vc := newVclock()
	c.Clock = vc.Now

	// One pending entry that never ages past AckTimeout here: scans run
	// but abandon nothing, so lastSweep is the only observable.
	c.mu.Lock()
	c.pending[99] = pendingCmd{typ: MsgSlotDelta, sat: 1, sent: vc.Now()}
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

	tenth := c.ackTimeout() / 10
	vc.Advance(tenth - time.Millisecond)
	c.SweepPending()
	if got := lastSweep(); !got.Equal(t0) {
		t.Fatalf("sweep ran inside the rate-limit window: lastSweep advanced to %v", got)
	}

	vc.Advance(time.Millisecond) // exactly AckTimeout/10 since t0
	c.SweepPending()
	if got := lastSweep(); !got.Equal(vc.Now()) {
		t.Fatalf("sweep did not run at AckTimeout/10: lastSweep=%v now=%v", got, vc.Now())
	}

	// An empty pending table short-circuits without touching lastSweep.
	c.mu.Lock()
	delete(c.pending, 99)
	c.mu.Unlock()
	t1 := lastSweep()
	vc.Advance(10 * c.ackTimeout())
	c.SweepPending()
	if got := lastSweep(); !got.Equal(t1) {
		t.Fatalf("empty sweep advanced lastSweep to %v", got)
	}
}
