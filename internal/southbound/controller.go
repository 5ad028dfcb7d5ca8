package southbound

import (
	"errors"
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

// Telemetry series names exported by a Controller's registry.
const (
	// MetricMessages counts southbound messages by {dir, type} labels.
	MetricMessages = "tinyleo_southbound_messages_total"
	// MetricBytes counts wire bytes by {dir} label.
	MetricBytes = "tinyleo_southbound_bytes_total"
	// MetricConnectedAgents gauges currently registered agents.
	MetricConnectedAgents = "tinyleo_southbound_connected_agents"
	// MetricAckRTT is the command→ack round-trip histogram (seconds).
	MetricAckRTT = "tinyleo_southbound_ack_rtt_seconds"
	// MetricAckTimeouts counts commands abandoned unacknowledged after
	// AckTimeout (retransmissions included).
	MetricAckTimeouts = "tinyleo_southbound_ack_timeouts_total"
	// MetricRetransmits counts command retransmissions.
	MetricRetransmits = "tinyleo_southbound_retransmits_total"
	// MetricUntracked counts commands sent while the pending-ack table was
	// full: they are written to the wire but get no timeout, retransmit,
	// or RTT accounting.
	MetricUntracked = "tinyleo_southbound_untracked_total"
	// MetricCmdE2E is the emit-to-applied latency histogram (seconds):
	// from Message.Emitted (set by the planning layer when the command was
	// produced) to the acknowledgement that confirms the agent applied it.
	// Unlike MetricAckRTT this includes queueing, retransmissions, and
	// reconnect resends — the latency the paper's reconfiguration deadline
	// actually cares about.
	MetricCmdE2E = "tinyleo_southbound_cmd_e2e_seconds"
)

// maxPendingAcks bounds the seq→pending-command map used for ack RTT
// measurement and retransmission; beyond it new sends are written but not
// tracked (counted by MetricUntracked and an untracked_command event).
const maxPendingAcks = 4096

// Reliability defaults, used when the corresponding Controller field is
// zero.
const (
	// DefaultAckTimeout is how long a command may sit unacknowledged
	// (across retransmissions) before the controller abandons it and marks
	// the satellite unreachable.
	DefaultAckTimeout = 5 * time.Second
	// DefaultRetransmitInterval is the at-least-once resend cadence for
	// unacknowledged commands.
	DefaultRetransmitInterval = time.Second
	// DefaultMaxRetransmits bounds resends per command (beyond the
	// original transmission).
	DefaultMaxRetransmits = 3
)

// pendingCmd tracks one unacknowledged command for RTT measurement and
// at-least-once retransmission. The pending table holds it by value: a
// path that changes an entry writes it back.
type pendingCmd struct {
	msg       *Message
	firstSent time.Time // original transmission (ack RTT epoch)
	lastSent  time.Time // latest (re)transmission
	attempts  int       // transmissions so far (1 = original send)
	// sc is the sb.send span of the original transmission: retransmit and
	// ack spans parent to it so a command's whole reliability history is
	// one causal subtree, however many resends it took.
	sc obs.SpanContext
}

// resend is a retransmission decided under c.mu, written after unlock.
type resend struct {
	conn net.Conn
	msg  *Message
	sc   obs.SpanContext // original send span (retransmit span parent)
}

// Controller is the terrestrial MPC endpoint of the southbound API: it
// accepts agent registrations and pushes topology commands.
//
// Reliability: commands are tracked until acknowledged. Unacked commands
// are retransmitted every RetransmitInterval up to MaxRetransmits times
// (the agent deduplicates by Seq, so delivery is at-least-once with
// idempotent application), then abandoned after AckTimeout with the
// satellite marked unreachable (TakeUnreachable / OnCommandFailed) so the
// control loop can keep compiling and route around it instead of erroring.
// Pending commands for a satellite are also resent immediately when it
// re-registers after a connection drop.
type Controller struct {
	ln net.Listener
	// epoch names this controller instance in every hello-ack: an agent
	// that re-registers with a different one forgets the command
	// sequence numbers it has seen, since this controller numbers its
	// commands afresh.
	epoch uint32

	// AckTimeout, RetransmitInterval, and MaxRetransmits tune the
	// reliability layer (zero = the Default* constants). Set before the
	// first Send.
	AckTimeout         time.Duration
	RetransmitInterval time.Duration
	MaxRetransmits     int
	// Clock, when non-nil, replaces time.Now for all pending-ack
	// accounting (tests and the chaos engine drive retransmission
	// deterministically through it). Set before any agent connects.
	Clock func() time.Time
	// Tracer records sb.send/sb.retransmit/sb.ack spans for each tracked
	// command (nil = the process-wide obs.Trace()). The sb.send span's
	// context replaces Message.Trace on the wire, so agent-side apply
	// spans parent to the controller's send — one causal tree per command
	// across both processes. Set before the first Send.
	Tracer *obs.Tracer

	mu sync.Mutex
	//tinyleo:guardedby mu
	agents map[uint32]net.Conn
	//tinyleo:guardedby mu
	hellos map[uint32]uint64 // satID → registration count
	//tinyleo:guardedby mu
	unreachable map[uint32]bool // satIDs with abandoned commands
	//tinyleo:guardedby mu
	seq uint32
	//tinyleo:guardedby mu
	closed bool
	//tinyleo:guardedby mu
	pending map[uint32]pendingCmd // command seq → pending state, by value
	//tinyleo:guardedby mu
	lastSweep time.Time // last ack-timeout sweep

	// wmu serializes frame writes so a retransmission and a Send to the
	// same agent cannot interleave bytes on the connection.
	wmu sync.Mutex

	// OnFailure, if set, is invoked when an agent reports a failure and
	// returns the repair commands to push (addressed by Message.SatID).
	OnFailure func(report *Message) []*Message
	// OnAck observes acknowledgements. The message is borrowed from the
	// connection's frame storage and valid only for the duration of the
	// call: copy what must outlive it. (Every other hook receives data it
	// owns.)
	OnAck func(m *Message)
	// OnCommandFailed observes commands abandoned after AckTimeout (called
	// without internal locks held).
	OnCommandFailed func(m *Message)
	// OnTelemetry receives fleet telemetry payloads pushed by agents
	// (typically (*fleet.Aggregator).HandleReport). Called from the
	// connection's read loop without internal locks held; nil drops the
	// reports. Set before agents connect.
	OnTelemetry func(satID uint32, payload []byte)
	// OnRegister observes agent registrations (every MsgHello, including
	// reconnects). The delta enforcer uses it to force a full-snapshot
	// re-sync for a reconnected agent, whose dataplane view may have
	// missed deltas. Called from the connection's read loop without
	// internal locks held, before the hello-ack is written; set before
	// agents connect.
	OnRegister func(satID uint32)

	// reg is the controller's always-enabled telemetry registry (the
	// Figure 17 signaling accounting, plus wire bytes, the connected-agent
	// gauge, and the ack RTT histogram). Read it via TotalMessages/Metrics;
	// serve it via obs.Serve.
	reg         *obs.Registry
	rx, tx      [MsgSlotSnapshot + 1]*obs.Counter // indexed by MsgType
	rxBytes     *obs.Counter
	txBytes     *obs.Counter
	connected   *obs.Gauge
	ackRTT      *obs.Histogram
	cmdE2E      *obs.Histogram
	ackTimeouts *obs.Counter
	retransmits *obs.Counter
	untracked   *obs.Counter

	wg sync.WaitGroup
}

// ListenController starts a controller on addr ("127.0.0.1:0" for tests).
func ListenController(addr string) (*Controller, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry(true)
	c := &Controller{
		ln:          ln,
		epoch:       rand.Uint32() | 1,
		agents:      map[uint32]net.Conn{},
		hellos:      map[uint32]uint64{},
		unreachable: map[uint32]bool{},
		pending:     map[uint32]pendingCmd{},
		reg:         reg,
		rxBytes:     reg.Counter(MetricBytes, "dir", "rx"),
		txBytes:     reg.Counter(MetricBytes, "dir", "tx"),
		connected:   reg.Gauge(MetricConnectedAgents),
		ackRTT:      reg.Histogram(MetricAckRTT, obs.DefBuckets),
		cmdE2E:      reg.Histogram(MetricCmdE2E, obs.DefBuckets),
		ackTimeouts: reg.Counter(MetricAckTimeouts),
		retransmits: reg.Counter(MetricRetransmits),
		untracked:   reg.Counter(MetricUntracked),
	}
	for t := MsgHello; t <= MsgSlotSnapshot; t++ {
		c.rx[t] = reg.Counter(MetricMessages, "dir", "rx", "type", t.String())
		c.tx[t] = reg.Counter(MetricMessages, "dir", "tx", "type", t.String())
	}
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

// Addr returns the listening address.
func (c *Controller) Addr() string { return c.ln.Addr().String() }

// Metrics returns the controller's telemetry registry, suitable for
// merging into an obs.Serve endpoint.
func (c *Controller) Metrics() *obs.Registry { return c.reg }

func (c *Controller) now() time.Time {
	if c.Clock != nil {
		return c.Clock()
	}
	return time.Now()
}

func (c *Controller) tracer() *obs.Tracer {
	if c.Tracer != nil {
		return c.Tracer
	}
	return obs.Trace()
}

func (c *Controller) ackTimeout() time.Duration {
	if c.AckTimeout > 0 {
		return c.AckTimeout
	}
	return DefaultAckTimeout
}

func (c *Controller) retransmitInterval() time.Duration {
	if c.RetransmitInterval > 0 {
		return c.RetransmitInterval
	}
	return DefaultRetransmitInterval
}

func (c *Controller) maxRetransmits() int {
	if c.MaxRetransmits > 0 {
		return c.MaxRetransmits
	}
	return DefaultMaxRetransmits
}

func (c *Controller) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.wg.Add(1)
		go c.serve(conn)
	}
}

// serve is the per-connection message loop.
//
//tinyleo:hotpath
func (c *Controller) serve(conn net.Conn) {
	defer c.wg.Done()
	var satID uint32
	registered := false
	defer func() {
		conn.Close()
		if registered {
			c.mu.Lock()
			if c.agents[satID] == conn {
				delete(c.agents, satID)
				c.connected.Set(float64(len(c.agents)))
				if flightrec.Enabled() {
					flightrec.Emit(flightrec.CompSouthbound, "agent_disconnect",
						"sat", strconv.FormatUint(uint64(satID), 10))
				}
			}
			c.mu.Unlock()
		}
	}()
	fr := frameReader{r: conn}
	for {
		m, err := fr.next()
		if err != nil {
			return
		}
		c.countRx(m)
		switch m.Type {
		case MsgHello:
			satID = m.SatID
			c.mu.Lock()
			if c.closed {
				// Close has taken the connections it closes: an agent that
				// re-dialed meanwhile is turned away, not registered and
				// left for Close to wait on.
				c.mu.Unlock()
				return
			}
			c.agents[satID] = conn
			c.hellos[satID]++
			delete(c.unreachable, satID)
			// The hello-ack is counted with the registration, not after
			// its write below: whoever sees the gauge include this agent
			// also sees both halves of its handshake in the message
			// counters. An ack whose write then fails stays counted; the
			// connection is dropped and the gauge falls back.
			ack := &Message{Type: MsgHelloAck, SatID: satID, Seq: m.Seq, Peer: c.epoch}
			c.countTx(ack)
			c.connected.Set(float64(len(c.agents)))
			// At-least-once across reconnects: everything still pending
			// for this satellite goes out again on the fresh connection.
			var resends []resend
			now := c.now()
			// Sorted by seq: the agent sees retransmits in send order.
			for _, seq := range c.pendingSeqsLocked() {
				p := c.pending[seq]
				if p.msg.SatID != satID {
					continue
				}
				p.attempts++
				p.lastSent = now
				c.pending[seq] = p
				c.retransmits.Inc()
				resends = append(resends, resend{conn, p.msg, p.sc})
			}
			c.mu.Unlock()
			registered = true
			if flightrec.Enabled() {
				flightrec.Emit(flightrec.CompSouthbound, "agent_connect",
					"sat", strconv.FormatUint(uint64(satID), 10),
					"addr", conn.RemoteAddr().String())
			}
			// The hook runs before the agent learns it is registered, so
			// what it does (the delta enforcer's re-sync mark) cannot
			// land after the first command the dialer's caller sends.
			if c.OnRegister != nil {
				c.OnRegister(satID)
			}
			if err := c.writeTo(conn, ack); err != nil {
				return
			}
			c.deliverResends(resends)
		case MsgFailureReport:
			if flightrec.Enabled() {
				flightrec.Emit(flightrec.CompSouthbound, "failure_report",
					"sat", strconv.FormatUint(uint64(m.SatID), 10),
					"peer", strconv.FormatUint(uint64(m.Peer), 10))
			}
			var cmds []*Message
			if c.OnFailure != nil {
				cmds = c.OnFailure(m.clone())
			}
			for _, cmd := range cmds {
				if err := c.Send(cmd); err != nil {
					continue
				}
			}
		case MsgAck:
			now := c.now()
			c.mu.Lock()
			if p, tracked := c.pending[m.Seq]; tracked {
				c.ackRTT.ObserveDuration(now.Sub(p.firstSent))
				if !p.msg.Emitted.IsZero() {
					c.cmdE2E.ObserveDuration(now.Sub(p.msg.Emitted))
				}
				// The ack's span and event are recorded before the entry
				// leaves the pending table (both under c.mu): whoever sees
				// PendingAcks() reach zero also finds every command's
				// sb.ack in the trace and command_applied in the recording.
				if tr := c.tracer(); tr.Enabled() && !p.sc.IsZero() {
					sp := tr.StartSpanCtx(p.sc, "sb.ack",
						"sat", strconv.FormatUint(uint64(m.SatID), 10),
						"seq", strconv.FormatUint(uint64(m.Seq), 10),
						"attempts", strconv.Itoa(p.attempts))
					sp.End()
				}
				if flightrec.Enabled() {
					attrs := []string{
						"sat", strconv.FormatUint(uint64(m.SatID), 10),
						"seq", strconv.FormatUint(uint64(m.Seq), 10),
						"attempts", strconv.Itoa(p.attempts),
						"rtt_us", strconv.FormatInt(now.Sub(p.firstSent).Microseconds(), 10),
					}
					if !p.msg.Emitted.IsZero() {
						attrs = append(attrs, "e2e_us", strconv.FormatInt(now.Sub(p.msg.Emitted).Microseconds(), 10))
					}
					flightrec.Emit(flightrec.CompSouthbound, "command_applied", attrs...)
				}
				delete(c.pending, m.Seq)
			}
			delete(c.unreachable, m.SatID)
			c.mu.Unlock()
			if c.OnAck != nil {
				c.OnAck(m)
			}
		case MsgTelemetry:
			if c.OnTelemetry != nil {
				c.OnTelemetry(m.SatID, append([]byte(nil), m.Payload...))
			}
		}
	}
}

// writeTo writes one frame under the controller-wide write lock, so
// concurrent Sends and retransmissions never interleave bytes.
//
//tinyleo:hotpath
func (c *Controller) writeTo(conn net.Conn, m *Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return WriteMessage(conn, m)
}

// deliverResends writes retransmissions decided during a sweep (or a
// re-registration) and counts them as tx traffic. Write errors are
// ignored: the pending entry stays tracked and either a later sweep or
// the agent's next reconnect retries it, or AckTimeout abandons it.
//
//tinyleo:hotpath
func (c *Controller) deliverResends(resends []resend) {
	for _, r := range resends {
		if err := c.writeTo(r.conn, r.msg); err != nil {
			continue
		}
		c.countTx(r.msg)
		if tr := c.tracer(); tr.Enabled() && !r.sc.IsZero() {
			sp := tr.StartSpanCtx(r.sc, "sb.retransmit",
				"sat", strconv.FormatUint(uint64(r.msg.SatID), 10),
				"seq", strconv.FormatUint(uint64(r.msg.Seq), 10))
			sp.End()
		}
		if flightrec.Enabled() {
			flightrec.Emit(flightrec.CompSouthbound, "retransmit",
				"sat", strconv.FormatUint(uint64(r.msg.SatID), 10),
				"seq", strconv.FormatUint(uint64(r.msg.Seq), 10))
		}
	}
}

// notifyFailed reports abandoned commands to OnCommandFailed outside any
// lock.
func (c *Controller) notifyFailed(failed []*Message) {
	if c.OnCommandFailed == nil {
		return
	}
	for _, m := range failed {
		c.OnCommandFailed(m)
	}
}

// countRx accounts one received message on the pre-resolved per-type
// counters; unknown types fall back to a label lookup.
//
//tinyleo:hotpath
func (c *Controller) countRx(m *Message) {
	if int(m.Type) < len(c.rx) && c.rx[m.Type] != nil {
		c.rx[m.Type].Inc()
	} else {
		//lint:tinyleo-ignore fallback for unknown types only; every current MsgType hits the pre-resolved array above
		c.reg.Counter(MetricMessages, "dir", "rx", "type", m.Type.String()).Inc()
	}
	c.rxBytes.Add(int64(m.WireSize()))
}

// countTx accounts one transmitted message; see countRx.
//
//tinyleo:hotpath
func (c *Controller) countTx(m *Message) {
	if int(m.Type) < len(c.tx) && c.tx[m.Type] != nil {
		c.tx[m.Type].Inc()
	} else {
		//lint:tinyleo-ignore fallback for unknown types only; every current MsgType hits the pre-resolved array above
		c.reg.Counter(MetricMessages, "dir", "tx", "type", m.Type.String()).Inc()
	}
	c.txBytes.Add(int64(m.WireSize()))
}

// TotalMessages returns the total southbound messages sent and received.
func (c *Controller) TotalMessages() int64 {
	return obs.SumCounters(MetricMessages, c.reg)
}

// ErrUnknownAgent reports a command addressed to an unregistered satellite.
var ErrUnknownAgent = errors.New("southbound: unknown agent")

// Send pushes a command to the agent identified by m.SatID, assigning a
// sequence number if unset. The command is tracked for acknowledgement:
// if no ack arrives it is retransmitted (see the Controller doc) and
// eventually abandoned. A synchronous write error is returned once and
// the command is NOT left in the pending table (it would otherwise be
// double-reported as an ack timeout later).
//
//tinyleo:hotpath
func (c *Controller) Send(m *Message) error {
	now := c.now()
	// The send span continues the producer's trace (m.Trace, e.g. an
	// mpc.emit root) and replaces it on the wire, so the agent's apply
	// span parents to this send. With tracing disabled the message keeps
	// whatever context the producer set.
	var sendSpan obs.Span
	if tr := c.tracer(); tr.Enabled() {
		sendSpan = tr.StartSpanCtx(m.Trace, "sb.send")
		if sc := sendSpan.Context(); !sc.IsZero() {
			m.Trace = sc
		}
	}
	c.mu.Lock()
	resends, failed := c.sweepAckTimeoutsLocked(now)
	conn, ok := c.agents[m.SatID]
	tracked := false
	if ok {
		if m.Seq == 0 {
			c.seq++
			m.Seq = c.seq
		}
		if len(c.pending) < maxPendingAcks {
			c.pending[m.Seq] = pendingCmd{msg: m, firstSent: now, lastSent: now, attempts: 1, sc: m.Trace}
			tracked = true
		} else {
			c.untracked.Inc()
			if flightrec.Enabled() {
				flightrec.Emit(flightrec.CompSouthbound, "untracked_command",
					"sat", strconv.FormatUint(uint64(m.SatID), 10),
					"seq", strconv.FormatUint(uint64(m.Seq), 10),
					"pending", strconv.Itoa(maxPendingAcks))
			}
		}
	}
	c.mu.Unlock()
	if !sendSpan.Context().IsZero() {
		sendSpan.Attr("sat", strconv.FormatUint(uint64(m.SatID), 10))
		sendSpan.Attr("seq", strconv.FormatUint(uint64(m.Seq), 10))
		sendSpan.Attr("type", m.Type.String())
	}
	c.deliverResends(resends)
	c.notifyFailed(failed)
	if !ok {
		sendSpan.Attr("err", "unknown-agent")
		sendSpan.End()
		return fmt.Errorf("%w: %d", ErrUnknownAgent, m.SatID)
	}
	if err := c.writeTo(conn, m); err != nil {
		if tracked {
			c.mu.Lock()
			delete(c.pending, m.Seq)
			c.mu.Unlock()
		}
		sendSpan.Attr("err", "write")
		sendSpan.End()
		return err
	}
	c.countTx(m)
	sendSpan.End()
	return nil
}

// SweepPending runs one pending-ack sweep immediately (subject to the
// rate limit): retransmitting overdue commands and abandoning those past
// AckTimeout. Send sweeps lazily; callers with long idle gaps (or a
// virtual clock) use this to drive the reliability layer explicitly.
func (c *Controller) SweepPending() {
	now := c.now()
	c.mu.Lock()
	resends, failed := c.sweepAckTimeoutsLocked(now)
	c.mu.Unlock()
	c.deliverResends(resends)
	c.notifyFailed(failed)
}

// sweepAckTimeoutsLocked scans the pending table: commands unacked past
// RetransmitInterval are scheduled for retransmission (returned for the
// caller to write after unlock), and commands older than AckTimeout are
// abandoned — counted as ack timeouts, flagged in the unreachable set,
// and returned for OnCommandFailed. Called with c.mu held; rate-limited
// to one scan per RetransmitInterval/2 so Send stays O(1) amortized.
//
//tinyleo:hotpath
func (c *Controller) sweepAckTimeoutsLocked(now time.Time) ([]resend, []*Message) {
	if len(c.pending) == 0 || now.Sub(c.lastSweep) < c.retransmitInterval()/2 {
		return nil, nil
	}
	c.lastSweep = now
	var resends []resend
	var failed []*Message
	// Sorted by seq so retransmit order, failure order, and the emitted
	// ack_timeout events are reproducible run-to-run.
	for _, seq := range c.pendingSeqsLocked() {
		p := c.pending[seq]
		if age := now.Sub(p.firstSent); age > c.ackTimeout() {
			delete(c.pending, seq)
			c.ackTimeouts.Inc()
			c.unreachable[p.msg.SatID] = true
			failed = append(failed, p.msg)
			if flightrec.Enabled() {
				flightrec.Emit(flightrec.CompSouthbound, "ack_timeout",
					"sat", strconv.FormatUint(uint64(p.msg.SatID), 10),
					"seq", strconv.FormatUint(uint64(seq), 10),
					"attempts", strconv.Itoa(p.attempts),
					"age_ms", strconv.FormatInt(age.Milliseconds(), 10))
			}
			continue
		}
		if now.Sub(p.lastSent) < c.retransmitInterval() || p.attempts > c.maxRetransmits() {
			continue
		}
		conn, ok := c.agents[p.msg.SatID]
		if !ok {
			continue // disconnected; re-registration resends
		}
		p.attempts++
		p.lastSent = now
		c.pending[seq] = p
		c.retransmits.Inc()
		resends = append(resends, resend{conn, p.msg, p.sc})
	}
	return resends, failed
}

// pendingSeqsLocked returns the pending command sequence numbers in
// ascending order. Retransmit paths iterate this instead of the pending
// map directly: resend order is wire-visible, so map iteration order
// would leak into agent-observed behavior. Called with c.mu held.
func (c *Controller) pendingSeqsLocked() []uint32 {
	seqs := make([]uint32, 0, len(c.pending))
	for seq := range c.pending {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	return seqs
}

// PendingAcks returns the number of commands awaiting acknowledgement.
func (c *Controller) PendingAcks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Registrations returns how many times satID has registered (hello
// count), distinguishing a reconnect from the original session.
func (c *Controller) Registrations(satID uint32) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hellos[satID]
}

// TakeUnreachable drains and returns (sorted) the satellites whose
// commands were abandoned since the last call and that have not
// re-registered or acked since: the set the control loop should mark as
// failed toward the MPC instead of erroring.
func (c *Controller) TakeUnreachable() []uint32 {
	c.mu.Lock()
	out := make([]uint32, 0, len(c.unreachable))
	for id := range c.unreachable {
		out = append(out, id)
	}
	c.unreachable = map[uint32]bool{}
	c.mu.Unlock()
	slices.Sort(out)
	return out
}

// hasAgent reports whether satID has a registered agent right now.
func (c *Controller) hasAgent(satID uint32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.agents[satID] != nil
}

// AgentCount returns the number of registered agents.
func (c *Controller) AgentCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.agents)
}

// WaitForAgents blocks until n agents registered or the timeout elapsed.
func (c *Controller) WaitForAgents(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.AgentCount() >= n {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("southbound: only %d/%d agents after %v", c.AgentCount(), n, timeout)
}

// Close stops the controller and disconnects all agents.
func (c *Controller) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := make([]net.Conn, 0, len(c.agents))
	for _, conn := range c.agents {
		//lint:tinyleo-ignore every connection is closed unconditionally; close order is not observable
		conns = append(conns, conn)
	}
	c.mu.Unlock()
	err := c.ln.Close()
	for _, conn := range conns {
		conn.Close()
	}
	c.wg.Wait()
	return err
}
