package southbound

import (
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flightrec"
)

// Agent-side telemetry on the process-wide default registry (disabled —
// and therefore free — unless obs.Enable() was called, e.g. by the
// tinyleo-sat -metrics-addr flag). Counters are cached per message type so
// the read loop never takes the registry lock.
//
// MsgTelemetry is deliberately NOT metered here: a fleet report that
// bumped a counter in the very registry it just snapshotted would keep
// the registry permanently dirty — every flush would beget the next,
// and a quiesced agent's rollup could never exactly equal its local
// registry. The controller meters telemetry traffic on its side instead.
var agentMetrics = struct {
	rx, tx     [MsgSlotSnapshot + 1]*obs.Counter
	reconnects *obs.Counter
	duplicates *obs.Counter
}{}

func init() {
	for t := MsgHello; t <= MsgSlotSnapshot; t++ {
		if t == MsgTelemetry {
			continue
		}
		agentMetrics.rx[t] = obs.Default().Counter(
			"tinyleo_southbound_agent_messages_total", "dir", "rx", "type", t.String())
		agentMetrics.tx[t] = obs.Default().Counter(
			"tinyleo_southbound_agent_messages_total", "dir", "tx", "type", t.String())
	}
	agentMetrics.reconnects = obs.Default().Counter("tinyleo_southbound_agent_reconnects_total")
	agentMetrics.duplicates = obs.Default().Counter("tinyleo_southbound_agent_duplicates_total")
}

// Dedup window, backoff defaults for AgentOptions zero values, and the
// backoff jitter.
const (
	// DefaultDedupWindow is how many recent command sequence numbers an
	// agent remembers for duplicate suppression.
	DefaultDedupWindow = 4096
	// DefaultBackoffBase / DefaultBackoffMax bound the reconnect backoff.
	DefaultBackoffBase = 50 * time.Millisecond
	DefaultBackoffMax  = 2 * time.Second
	// backoffJitter is the uniform random fraction added on top of the
	// backoff.
	backoffJitter = 0.5
)

// AgentOptions tunes the agent's reliability behaviour.
type AgentOptions struct {
	// BackoffBase and BackoffMax bound the reconnect backoff (zero = the
	// Default* constants). The delay before attempt n is
	// min(BackoffBase·2ⁿ, BackoffMax) · (1 + 0.5·U[0,1)).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed seeds the jitter RNG (0 = a fixed default, keeping campaigns
	// deterministic).
	Seed int64
	// Tracer records agent.apply spans continuing the trace context
	// carried by incoming commands (nil = the process-wide obs.Trace()).
	// Duplicate (retransmitted, already-applied) commands get no span:
	// the causal tree has exactly one apply per command.
	Tracer *obs.Tracer
}

// Agent is the per-satellite southbound endpoint: it registers with the
// controller, receives topology commands, acknowledges them, and reports
// failures (§5's "gRPC-based southbound API agent per satellite").
//
// When its connection drops the agent re-dials with exponential backoff and
// jitter until it registers again or is closed; a DeltaEnforcer re-syncs a
// re-registered agent with a MsgSlotSnapshot.
//
// Duplicate commands (the controller retransmits until acked) are
// acknowledged but not re-applied: OnCommand runs at most once per
// sequence number within the dedup window.
type Agent struct {
	SatID uint32

	addr    string
	timeout time.Duration
	opts    AgentOptions

	//tinyleo:guardedby mu
	conn net.Conn
	mu   sync.Mutex
	wg   sync.WaitGroup
	stop chan struct{}

	// rng drives backoff jitter; only the read loop touches it. It is nil
	// until the first reconnect draws a delay: a source is 4.9 KB, and most
	// agents of a large fleet never lose their connection.
	rng *rand.Rand
	// seenRing / seenHead / seenMax implement the bounded dedup window;
	// only the read loop touches them. seenRing is the window: it grows to
	// DefaultDedupWindow and is a ring buffer from then on — a slice that
	// is appended to and re-sliced from the front grows its backing array
	// without bound over a long session. seenMax bounds every sequence
	// number the ring holds.
	seenRing []uint32
	seenHead int
	seenMax  uint32

	// OnCommand is invoked for every controller command (MsgSlotDelta or
	// MsgSlotSnapshot), once per sequence number, with a message the
	// callback owns. The agent auto-acks after the callback returns.
	OnCommand func(m *Message)

	helloAck chan struct{}
	acked    bool   // helloAck already closed (read loop only)
	epoch    uint32 // controller epoch of the last hello-ack (read loop only)
	//tinyleo:guardedby mu
	closed bool

	//tinyleo:guardedby mu
	reconnects int64 // sessions re-registered after a drop
}

// DialAgent connects and registers an agent with default options.
func DialAgent(addr string, satID uint32, timeout time.Duration) (*Agent, error) {
	return DialAgentOptions(addr, satID, timeout, AgentOptions{})
}

// DialAgentOptions connects and registers an agent with explicit
// reliability options.
func DialAgentOptions(addr string, satID uint32, timeout time.Duration, opts AgentOptions) (*Agent, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	a := &Agent{
		SatID: satID, addr: addr, timeout: timeout, opts: opts,
		conn: conn, stop: make(chan struct{}),
		helloAck: make(chan struct{}),
	}
	a.wg.Add(1)
	go a.readLoop()
	if err := a.write(&Message{Type: MsgHello, SatID: satID, Seq: 1}); err != nil {
		a.Close()
		return nil, err
	}
	// A stopped timer, not time.After: the wait is usually short, and an
	// unfired timer would stay live for the whole timeout.
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-a.helloAck:
	case <-timer.C:
		a.Close()
		return nil, fmt.Errorf("southbound: hello ack timeout for sat %d", satID)
	}
	return a, nil
}

func (a *Agent) tracer() *obs.Tracer {
	if a.opts.Tracer != nil {
		return a.opts.Tracer
	}
	return obs.Trace()
}

// isDuplicate records seq in the dedup window and reports whether it was
// already there. Read loop only. The window is a ring buffer that grows
// on demand up to the window (most agents see a few dozen commands, and a
// fleet of them should not each pin a full window): once full, the oldest
// remembered sequence number is evicted in place, so memory stays bounded
// by the window no matter how many commands a session sees. The controller
// numbers commands in increasing order, so a fresh command is above every
// remembered one and skips the scan.
func (a *Agent) isDuplicate(seq uint32) bool {
	if seq <= a.seenMax && slices.Contains(a.seenRing, seq) {
		return true
	}
	a.seenMax = max(a.seenMax, seq)
	if len(a.seenRing) < DefaultDedupWindow {
		if len(a.seenRing) == cap(a.seenRing) {
			// Doubling like append, but never past the window.
			grown := make([]uint32, len(a.seenRing), min(max(2*cap(a.seenRing), 16), DefaultDedupWindow))
			copy(grown, a.seenRing)
			a.seenRing = grown
		}
		a.seenRing = append(a.seenRing, seq)
		return false
	}
	a.seenRing[a.seenHead] = seq
	a.seenHead = (a.seenHead + 1) % len(a.seenRing)
	return false
}

// readLoop is the agent's per-command receive loop.
//
//tinyleo:hotpath
func (a *Agent) readLoop() {
	defer a.wg.Done()
	var fr frameReader
	for {
		a.mu.Lock()
		fr.r = a.conn
		a.mu.Unlock()
		// Hello-acks and duplicates are handled on the borrowed frame; a
		// command is copied once, for OnCommand to keep.
		m, err := fr.next()
		if err != nil {
			if !a.reconnect() {
				return
			}
			continue
		}
		if int(m.Type) < len(agentMetrics.rx) && agentMetrics.rx[m.Type] != nil {
			agentMetrics.rx[m.Type].Inc()
		}
		switch m.Type {
		case MsgHelloAck:
			if m.Peer != a.epoch {
				// A new controller instance numbers its commands from 1
				// again: the window would drop them as duplicates.
				a.epoch = m.Peer
				a.seenRing, a.seenHead, a.seenMax = a.seenRing[:0], 0, 0
			}
			if !a.acked {
				a.acked = true
				close(a.helloAck)
			}
		case MsgSlotDelta, MsgSlotSnapshot:
			if a.isDuplicate(m.Seq) {
				// Retransmission of a command already applied: re-ack so
				// the controller stops resending, but do not re-apply.
				agentMetrics.duplicates.Inc()
				if flightrec.Enabled() {
					flightrec.Emit(flightrec.CompSouthbound, "duplicate_command",
						"sat", strconv.FormatUint(uint64(a.SatID), 10),
						"seq", strconv.FormatUint(uint64(m.Seq), 10))
				}
				_ = a.write(&Message{Type: MsgAck, SatID: a.SatID, Seq: m.Seq})
				continue
			}
			if a.OnCommand != nil {
				m = m.clone()
			}
			// The apply span continues the controller's sb.send trace and
			// covers the OnCommand callback; m.Trace is rewritten to it so
			// callback-side work (dataplane install) parents to the apply.
			if tr := a.tracer(); tr.Enabled() && !m.Trace.IsZero() {
				sp := tr.StartSpanCtx(m.Trace, "agent.apply",
					"sat", strconv.FormatUint(uint64(a.SatID), 10),
					"seq", strconv.FormatUint(uint64(m.Seq), 10),
					"type", m.Type.String())
				m.Trace = sp.Context()
				if a.OnCommand != nil {
					a.OnCommand(m)
				}
				sp.End()
			} else if a.OnCommand != nil {
				a.OnCommand(m)
			}
			_ = a.write(&Message{Type: MsgAck, SatID: a.SatID, Seq: m.Seq})
		}
	}
}

// backoffDelay returns the wait before reconnect attempt n (from 0):
// min(BackoffBase·2ⁿ, BackoffMax) · (1 + 0.5·U[0,1)). The jitter source is
// created at the first draw, seeded with opts.Seed or else SatID+1, and kept
// across reconnects.
func (a *Agent) backoffDelay(attempt int) time.Duration {
	base := a.opts.BackoffBase
	if base <= 0 {
		base = DefaultBackoffBase
	}
	max := a.opts.BackoffMax
	if max <= 0 {
		max = DefaultBackoffMax
	}
	delay := base << uint(attempt)
	if delay > max || delay <= 0 {
		delay = max
	}
	if a.rng == nil {
		seed := a.opts.Seed
		if seed == 0 {
			seed = int64(a.SatID) + 1
		}
		a.rng = rand.New(rand.NewSource(seed))
	}
	return time.Duration(float64(delay) * (1 + backoffJitter*a.rng.Float64()))
}

// reconnect re-dials the controller with exponential backoff and jitter
// until a hello is written on a fresh connection or the agent is closed.
// Returns false when the read loop should exit (agent closed).
func (a *Agent) reconnect() bool {
	select {
	case <-a.stop: // Close took the connection away: there is no delay to draw
		return false
	default:
	}
	for attempt := 0; ; attempt++ {
		// A stopped timer, for the reason DialAgentOptions gives.
		timer := time.NewTimer(a.backoffDelay(attempt))
		select {
		case <-a.stop:
			timer.Stop()
			return false
		case <-timer.C:
		}
		conn, err := net.DialTimeout("tcp", a.addr, a.timeout)
		if err != nil {
			continue
		}
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			conn.Close()
			return false
		}
		a.conn = conn
		a.mu.Unlock()
		if err := a.write(&Message{Type: MsgHello, SatID: a.SatID, Seq: 1}); err != nil {
			conn.Close()
			continue
		}
		a.mu.Lock()
		a.reconnects++
		a.mu.Unlock()
		agentMetrics.reconnects.Inc()
		if flightrec.Enabled() {
			flightrec.Emit(flightrec.CompSouthbound, "agent_reconnect",
				"sat", strconv.FormatUint(uint64(a.SatID), 10),
				"attempt", strconv.Itoa(attempt+1))
		}
		return true
	}
}

// Reconnects returns how many times the agent re-established its
// controller session: dials whose hello was written, the same count as
// tinyleo_southbound_agent_reconnects_total.
func (a *Agent) Reconnects() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reconnects
}

// write sends one frame under the agent's lock.
//
//tinyleo:hotpath
func (a *Agent) write(m *Message) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return net.ErrClosed
	}
	if err := WriteMessage(a.conn, m); err != nil {
		return err
	}
	if int(m.Type) < len(agentMetrics.tx) && agentMetrics.tx[m.Type] != nil {
		agentMetrics.tx[m.Type].Inc()
	}
	return nil
}

// SendTelemetry pushes one opaque fleet-telemetry report (an
// internal/obs/fleet wire payload) to the controller. Telemetry rides
// the same session as control traffic but is fire-and-forget: no ack,
// no retransmit — a lost report is healed by the encoder's next
// baseline. See the agentMetrics doc for why it is not self-metered.
func (a *Agent) SendTelemetry(payload []byte) error {
	return a.write(&Message{Type: MsgTelemetry, SatID: a.SatID, Payload: payload})
}

// ReportFailure notifies the controller that the ISL toward peer failed.
func (a *Agent) ReportFailure(peer uint32) error {
	return a.write(&Message{Type: MsgFailureReport, SatID: a.SatID, Peer: peer})
}

// DropConn severs the agent's transport without closing the agent — a
// chaos/test hook for southbound connection failures. The agent re-dials
// with backoff.
func (a *Agent) DropConn() {
	a.mu.Lock()
	conn := a.conn
	a.mu.Unlock()
	conn.Close()
}

// Close disconnects the agent.
func (a *Agent) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	close(a.stop)
	conn := a.conn
	a.mu.Unlock()
	err := conn.Close()
	a.wg.Wait()
	return err
}
