package southbound

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
)

// Telemetry series names exported by a DeltaEnforcer on its controller's
// registry.
const (
	// MetricDeltaMessages counts delta-enforcement pushes by {kind} label:
	// "delta" (per-op batch) or "snapshot" (full re-sync).
	MetricDeltaMessages = "tinyleo_southbound_delta_messages_total"
	// MetricDeltaOps counts individual link add/remove operations carried
	// in slot-delta batches.
	MetricDeltaOps = "tinyleo_southbound_delta_ops_total"
	// MetricDeltaBytes counts payload bytes of slot-delta and
	// slot-snapshot messages (the per-slot signaling volume the delta path
	// exists to shrink).
	MetricDeltaBytes = "tinyleo_southbound_delta_bytes_total"
	// MetricDeltaResyncs counts full-snapshot re-syncs forced by agent
	// reconnects, abandoned commands, or first contact.
	MetricDeltaResyncs = "tinyleo_southbound_delta_resyncs_total"
)

// SlotDeltaOp is one ISL change within a slot-delta batch: establish
// (Up) or tear down the link toward Peer.
type SlotDeltaOp struct {
	Peer uint32
	Up   bool
}

// slotDeltaOpLen is the encoded size of one op: up/down byte + peer.
const slotDeltaOpLen = 1 + 4

// EncodeSlotDelta serializes a slot-delta op batch for the Payload
// trailer of a MsgSlotDelta message: a uint32 op count followed by one
// up/down byte and a uint32 peer per op, in batch order.
func EncodeSlotDelta(ops []SlotDeltaOp) []byte {
	buf := make([]byte, 4, 4+slotDeltaOpLen*len(ops))
	binary.BigEndian.PutUint32(buf, uint32(len(ops)))
	for _, op := range ops {
		buf = appendSlotDeltaOp(buf, op)
	}
	return buf
}

// appendSlotDeltaOp appends one op's encoding to a slot-delta payload.
func appendSlotDeltaOp(buf []byte, op SlotDeltaOp) []byte {
	up := byte(0)
	if op.Up {
		up = 1
	}
	return binary.BigEndian.AppendUint32(append(buf, up), op.Peer)
}

// DecodeSlotDelta parses a MsgSlotDelta payload (see EncodeSlotDelta).
func DecodeSlotDelta(p []byte) ([]SlotDeltaOp, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("southbound: slot-delta payload too short (%d bytes)", len(p))
	}
	count := int(binary.BigEndian.Uint32(p))
	if len(p) != 4+slotDeltaOpLen*count {
		return nil, fmt.Errorf("southbound: slot-delta payload declares %d ops, has %d bytes", count, len(p))
	}
	if count == 0 {
		return nil, nil
	}
	ops := make([]SlotDeltaOp, count)
	for i := range ops {
		off := 4 + slotDeltaOpLen*i
		ops[i] = SlotDeltaOp{Up: p[off] == 1, Peer: binary.BigEndian.Uint32(p[off+1:])}
	}
	return ops, nil
}

// EncodeSlotSnapshot serializes a satellite's full desired ISL peer set
// for the Payload trailer of a MsgSlotSnapshot message: a uint32 count
// followed by the peers in the given order.
func EncodeSlotSnapshot(peers []uint32) []byte {
	buf := make([]byte, 4, 4+4*len(peers))
	binary.BigEndian.PutUint32(buf, uint32(len(peers)))
	for _, peer := range peers {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], peer)
		buf = append(buf, b[:]...)
	}
	return buf
}

// DecodeSlotSnapshot parses a MsgSlotSnapshot payload (see
// EncodeSlotSnapshot).
func DecodeSlotSnapshot(p []byte) ([]uint32, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("southbound: slot-snapshot payload too short (%d bytes)", len(p))
	}
	count := int(binary.BigEndian.Uint32(p))
	if len(p) != 4+4*count {
		return nil, fmt.Errorf("southbound: slot-snapshot payload declares %d peers, has %d bytes", count, len(p))
	}
	if count == 0 {
		return nil, nil
	}
	peers := make([]uint32, count)
	for i := range peers {
		peers[i] = binary.BigEndian.Uint32(p[4+4*i:])
	}
	return peers, nil
}

// DeltaEnforcer pushes per-satellite slot deltas over a Controller's
// reliable session instead of one command per link endpoint. It tracks
// the desired ISL peer set of every satellite it has pushed to and a
// per-satellite synced flag; while synced, a Push sends one MsgSlotDelta
// carrying only the batch's add/remove ops. When delta composition can
// no longer be trusted — the agent re-registered (its dataplane may have
// missed deltas applied while it was away... or it restarted entirely),
// a command to it was abandoned after AckTimeout, or the satellite has
// never been pushed to — the next Push to it, or the next Resync, sends one
// MsgSlotSnapshot carrying the full desired peer set, which re-syncs the
// agent and restores delta eligibility.
//
// Construct with NewDeltaEnforcer before agents connect: it chains onto
// the controller's OnRegister and OnCommandFailed hooks (preserving any
// already installed).
type DeltaEnforcer struct {
	c *Controller

	// OnSent observes every message the enforcer sent, after the send
	// succeeded (so Seq is assigned), on the goroutine that pushed it. Set
	// before the first Push.
	OnSent func(m *Message)

	mu sync.Mutex
	//tinyleo:guardedby mu
	desired map[uint32]map[uint32]struct{} // sat → desired ISL peer set
	//tinyleo:guardedby mu
	synced map[uint32]bool // sat may receive per-op deltas

	deltaMsgs *obs.Counter
	snapMsgs  *obs.Counter
	opsSent   *obs.Counter
	bytesSent *obs.Counter
	resyncs   *obs.Counter
}

// NewDeltaEnforcer wires a DeltaEnforcer to c, chaining its re-sync
// triggers onto c.OnRegister and c.OnCommandFailed.
func NewDeltaEnforcer(c *Controller) *DeltaEnforcer {
	e := &DeltaEnforcer{
		c:         c,
		desired:   map[uint32]map[uint32]struct{}{},
		synced:    map[uint32]bool{},
		deltaMsgs: c.reg.Counter(MetricDeltaMessages, "kind", "delta"),
		snapMsgs:  c.reg.Counter(MetricDeltaMessages, "kind", "snapshot"),
		opsSent:   c.reg.Counter(MetricDeltaOps),
		bytesSent: c.reg.Counter(MetricDeltaBytes),
		resyncs:   c.reg.Counter(MetricDeltaResyncs),
	}
	prevRegister := c.OnRegister
	c.OnRegister = func(satID uint32) {
		e.MarkUnsynced(satID)
		if prevRegister != nil {
			prevRegister(satID)
		}
	}
	prevFailed := c.OnCommandFailed
	c.OnCommandFailed = func(m *Message) {
		e.MarkUnsynced(m.SatID)
		if prevFailed != nil {
			prevFailed(m)
		}
	}
	return e
}

// MarkUnsynced forces the next Push to sat (or Resync) to be a
// full-snapshot re-sync. Called automatically on agent (re-)registration
// and on abandoned commands; callers may also invoke it directly (e.g. a
// chaos fault that is known to wipe an agent's dataplane).
func (e *DeltaEnforcer) MarkUnsynced(sat uint32) {
	e.mu.Lock()
	delete(e.synced, sat)
	e.mu.Unlock()
}

// Desired returns sat's tracked desired ISL peer set in ascending
// order (nil when the satellite has never been pushed to).
func (e *DeltaEnforcer) Desired(sat uint32) []uint32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.desired[sat] == nil {
		return nil
	}
	return sortedPeers(e.desired[sat])
}

// Push applies one slot's link changes for sat — peers in del torn
// down, then peers in add established — to the tracked desired set and
// sends the result over the controller's reliable session: a
// MsgSlotDelta op batch while sat is synced, or a MsgSlotSnapshot of
// the full post-change desired set when it is not. A no-op push to a
// synced satellite sends nothing. emitted and trace carry the planning
// layer's emit time and causal context onto the wire (zero values are
// fine). On a send error the satellite is marked unsynced so the next
// push re-syncs it.
//
//tinyleo:hotpath
func (e *DeltaEnforcer) Push(sat uint32, add, del []uint32, emitted time.Time, trace obs.SpanContext) error {
	e.mu.Lock()
	d := e.desired[sat]
	if d == nil {
		d = map[uint32]struct{}{}
		e.desired[sat] = d
	}
	synced := e.synced[sat]
	// A synced satellite's ops are encoded straight into its slot-delta
	// payload (EncodeSlotDelta's bytes), allocated at the first op; the op
	// count is patched in at the end.
	var payload []byte
	op := func(peer uint32, up bool) {
		if !synced {
			return
		}
		if payload == nil {
			payload = make([]byte, 4, 4+slotDeltaOpLen*(len(add)+len(del)))
		}
		payload = appendSlotDeltaOp(payload, SlotDeltaOp{Peer: peer, Up: up})
	}
	for _, p := range del {
		if _, ok := d[p]; ok {
			delete(d, p)
			op(p, false)
		}
	}
	for _, p := range add {
		if _, ok := d[p]; !ok {
			d[p] = struct{}{}
			op(p, true)
		}
	}
	if synced && payload == nil {
		e.mu.Unlock()
		return nil
	}
	m := &Message{SatID: sat, Emitted: emitted, Trace: trace}
	nops := 0
	if synced {
		nops = (len(payload) - 4) / slotDeltaOpLen
		binary.BigEndian.PutUint32(payload, uint32(nops))
		m.Type = MsgSlotDelta
		m.Payload = payload
	} else {
		m.Type = MsgSlotSnapshot
		m.Payload = EncodeSlotSnapshot(sortedPeers(d))
		e.synced[sat] = true
	}
	e.mu.Unlock()
	if err := e.c.Send(m); err != nil {
		e.MarkUnsynced(sat)
		return err
	}
	// Counted only once the message has left: a push to a satellite with no
	// agent fails in Send and must not show up as traffic.
	if synced {
		e.deltaMsgs.Inc()
		e.opsSent.Add(int64(nops))
	} else {
		e.snapMsgs.Inc()
		e.resyncs.Inc()
	}
	e.bytesSent.Add(int64(len(m.Payload)))
	if e.OnSent != nil {
		e.OnSent(m)
	}
	return nil
}

// Resync re-syncs, in ascending order, every satellite that is unsynced,
// has a tracked desired set and a registered agent — one MsgSlotSnapshot
// each — and returns how many. Without it an agent that re-registers is
// re-synced only when one of its own links next changes; the control loop
// calls it once per slot, after the slot's batches.
func (e *DeltaEnforcer) Resync(emitted time.Time, trace obs.SpanContext) int {
	e.mu.Lock()
	var sats []uint32
	for sat := range e.desired {
		if !e.synced[sat] {
			sats = append(sats, sat)
		}
	}
	e.mu.Unlock()
	slices.Sort(sats)
	n := 0
	for _, sat := range sats {
		if e.c.hasAgent(sat) && e.Push(sat, nil, nil, emitted, trace) == nil {
			n++
		}
	}
	return n
}

// sortedPeers flattens a peer set in ascending order.
func sortedPeers(d map[uint32]struct{}) []uint32 {
	peers := make([]uint32, 0, len(d))
	for p := range d {
		peers = append(peers, p)
	}
	slices.Sort(peers)
	return peers
}
