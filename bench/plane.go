package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mpc"
	"repro/internal/obs"
	"repro/internal/southbound"
)

// plane is the southbound plane under test: a controller on loopback TCP,
// its slot-delta enforcer, and one in-process agent per satellite, each
// rebuilding its applied ISL peer set from the commands it receives (what
// tinyleo-sat -delta does to its dataplane view).
type plane struct {
	ctl    *southbound.Controller
	enf    *southbound.DeltaEnforcer
	agents []*agent // by satellite id

	// acked counts acknowledgements; the driver sleeps on wake until the
	// count reaches the number of commands it has sent.
	acked atomic.Int64
	want  atomic.Int64
	wake  chan struct{}

	// Cumulative controller counters the per-slot figures are deltas of.
	txDelta, txSnap, txBytes, rxBytes, retransmits, timeouts *obs.Counter
	ackRTT                                                   *obs.Histogram

	dialSeconds float64
}

type agent struct {
	a *southbound.Agent

	mu sync.Mutex
	// peers is the applied ISL peer set; nil until the first command.
	peers map[uint32]struct{}
	// bad counts commands whose payload did not decode.
	bad int
}

// apply is the agent's OnCommand: fold a slot delta or a full snapshot into
// the applied peer set.
func (ag *agent) apply(m *southbound.Message) {
	ag.mu.Lock()
	defer ag.mu.Unlock()
	switch m.Type {
	case southbound.MsgSlotDelta:
		ops, err := southbound.DecodeSlotDelta(m.Payload)
		if err != nil {
			ag.bad++
			return
		}
		if ag.peers == nil {
			ag.peers = map[uint32]struct{}{}
		}
		for _, op := range ops {
			if op.Up {
				ag.peers[op.Peer] = struct{}{}
			} else {
				delete(ag.peers, op.Peer)
			}
		}
	case southbound.MsgSlotSnapshot:
		peers, err := southbound.DecodeSlotSnapshot(m.Payload)
		if err != nil {
			ag.bad++
			return
		}
		ag.peers = make(map[uint32]struct{}, len(peers))
		for _, p := range peers {
			ag.peers[p] = struct{}{}
		}
	}
}

// newPlane listens on loopback and dials one agent for each of n satellites,
// waiting for every hello-ack.
func newPlane(n int) (*plane, error) {
	ctl, err := southbound.ListenController("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &plane{ctl: ctl, wake: make(chan struct{}, 1), agents: make([]*agent, n)}
	p.want.Store(-1)
	// The enforcer chains onto the controller's hooks, so it is installed
	// before any agent connects.
	p.enf = southbound.NewDeltaEnforcer(ctl)
	ctl.OnAck = func(*southbound.Message) {
		if p.acked.Add(1) == p.want.Load() {
			select {
			case p.wake <- struct{}{}:
			default:
			}
		}
	}
	reg := ctl.Metrics()
	p.txDelta = reg.Counter(southbound.MetricMessages, "dir", "tx", "type", southbound.MsgSlotDelta.String())
	p.txSnap = reg.Counter(southbound.MetricMessages, "dir", "tx", "type", southbound.MsgSlotSnapshot.String())
	p.txBytes = reg.Counter(southbound.MetricBytes, "dir", "tx")
	p.rxBytes = reg.Counter(southbound.MetricBytes, "dir", "rx")
	p.retransmits = reg.Counter(southbound.MetricRetransmits)
	p.timeouts = reg.Counter(southbound.MetricAckTimeouts)
	p.ackRTT = reg.Histogram(southbound.MetricAckRTT, obs.DefBuckets)

	t0 := time.Now()
	for id := range p.agents {
		a, err := southbound.DialAgent(ctl.Addr(), uint32(id), 5*time.Second)
		if err != nil {
			p.close()
			return nil, fmt.Errorf("dial agent %d: %w", id, err)
		}
		ag := &agent{a: a}
		a.OnCommand = ag.apply
		p.agents[id] = ag
	}
	p.dialSeconds = time.Since(t0).Seconds()
	return p, nil
}

func (p *plane) close() {
	for _, ag := range p.agents {
		if ag != nil {
			ag.a.Close()
		}
	}
	p.ctl.Close()
}

// sent is the cumulative number of enforcement commands on the wire.
func (p *plane) sent() int64 { return p.txDelta.Value() + p.txSnap.Value() }

// wireBytes is the cumulative controller tx+rx byte count.
func (p *plane) wireBytes() int64 { return p.txBytes.Value() + p.rxBytes.Value() }

// batches groups a change set — links added and removed, plus satellites to
// push to even without a change (a marked re-sync) — by satellite, ascending.
func batches(added, removed []mpc.Link, also []int) (sats []int, adds, dels map[int][]uint32) {
	adds, dels = map[int][]uint32{}, map[int][]uint32{}
	touched := map[int]bool{}
	for _, s := range also {
		touched[s] = true
	}
	for _, l := range added {
		for _, end := range l {
			adds[end] = append(adds[end], uint32(l.Peer(end)))
			touched[end] = true
		}
	}
	for _, l := range removed {
		for _, end := range l {
			dels[end] = append(dels[end], uint32(l.Peer(end)))
			touched[end] = true
		}
	}
	sats = make([]int, 0, len(touched))
	for s := range touched {
		sats = append(sats, s)
	}
	sort.Ints(sats)
	return sats, adds, dels
}

// push sends one change set as one slot-delta batch per satellite and
// returns the number of commands sent.
func (p *plane) push(added, removed []mpc.Link, also []int) (int, error) {
	sats, adds, dels := batches(added, removed, also)
	before := p.sent()
	for _, s := range sats {
		if err := p.enf.Push(uint32(s), adds[s], dels[s], time.Time{}, obs.SpanContext{}); err != nil {
			return int(p.sent() - before), fmt.Errorf("push to satellite %d: %w", s, err)
		}
	}
	return int(p.sent() - before), nil
}

// ackTimeout bounds one wait for acknowledgements; loopback acks take well
// under a millisecond, so reaching it means a command was lost.
const ackTimeout = 10 * time.Second

// awaitAcks blocks until every command sent so far is acknowledged.
func (p *plane) awaitAcks() error {
	want := p.sent()
	p.want.Store(want)
	timeout := time.NewTimer(ackTimeout)
	defer timeout.Stop()
	for p.acked.Load() < want {
		select {
		case <-p.wake:
		case <-timeout.C:
			return fmt.Errorf("southbound: %d of %d commands acknowledged after %v", p.acked.Load(), want, ackTimeout)
		}
	}
	return nil
}

// check compares every agent's applied peer set, and the enforcer's desired
// set, with the links of snap, and returns a description of each mismatch.
func (p *plane) check(snap *mpc.Snapshot) []string {
	// LinkSet, not Links: a repair can list one pair as both an inter-cell
	// and a ring link, and peers are a set.
	want := make([][]uint32, len(p.agents))
	for l := range snap.LinkSet() {
		want[l[0]] = append(want[l[0]], uint32(l[1]))
		want[l[1]] = append(want[l[1]], uint32(l[0]))
	}
	var bad []string
	for id, ag := range p.agents {
		sort.Slice(want[id], func(i, j int) bool { return want[id][i] < want[id][j] })
		ag.mu.Lock()
		applied := make([]uint32, 0, len(ag.peers))
		for peer := range ag.peers {
			applied = append(applied, peer)
		}
		if ag.bad > 0 {
			bad = append(bad, fmt.Sprintf("agent %d: %d undecodable commands", id, ag.bad))
		}
		ag.mu.Unlock()
		sort.Slice(applied, func(i, j int) bool { return applied[i] < applied[j] })
		if !equalPeers(applied, want[id]) {
			bad = append(bad, fmt.Sprintf("agent %d applied %v, snapshot has %v", id, applied, want[id]))
		}
		if desired := p.enf.Desired(uint32(id)); !equalPeers(desired, want[id]) {
			bad = append(bad, fmt.Sprintf("satellite %d desired %v, snapshot has %v", id, desired, want[id]))
		}
	}
	if n := p.ctl.PendingAcks(); n != 0 {
		bad = append(bad, fmt.Sprintf("%d commands pending after the slot settled", n))
	}
	return bad
}

func equalPeers(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
