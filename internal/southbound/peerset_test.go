package southbound

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestPeerSetMatchesMapModel drives one PeerSet with random interleavings
// of deltas, snapshots, duplicated messages, corrupt payloads and non-ISL
// commands, and checks it against a plain map after every step.
func TestPeerSetMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var set PeerSet
		model := map[uint32]bool{}
		peer := func() uint32 { return uint32(rng.Intn(12)) }
		for step := 0; step < 200; step++ {
			var m *Message
			wantErr := false
			switch rng.Intn(6) {
			case 0, 1: // delta, ops in batch order (a peer may appear twice)
				ops := make([]SlotDeltaOp, rng.Intn(5))
				for i := range ops {
					ops[i] = SlotDeltaOp{Peer: peer(), Up: rng.Intn(2) == 0}
				}
				m = &Message{Type: MsgSlotDelta, Payload: EncodeSlotDelta(ops)}
				for _, op := range ops {
					if op.Up {
						model[op.Peer] = true
					} else {
						delete(model, op.Peer)
					}
				}
			case 2: // snapshot, possibly listing a peer twice
				peers := make([]uint32, rng.Intn(6))
				for i := range peers {
					peers[i] = peer()
				}
				m = &Message{Type: MsgSlotSnapshot, Payload: EncodeSlotSnapshot(peers)}
				model = map[uint32]bool{}
				for _, p := range peers {
					model[p] = true
				}
			case 3: // an idempotent message delivered twice
				m = &Message{Type: MsgSlotSnapshot, Payload: EncodeSlotSnapshot(set.Peers())}
				if err := set.Apply(m); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			case 4: // corrupt payload: rejected, set untouched
				corrupt := [][]byte{nil, {1, 2}, {0, 0, 0, 5, 1}, {0xFF, 0xFF, 0xFF, 0xFF}}
				m = &Message{Type: MsgSlotDelta + MsgType(rng.Intn(2)), Payload: corrupt[rng.Intn(len(corrupt))]}
				wantErr = true
			case 5: // not an ISL command
				m = &Message{Type: MsgFailureReport, Peer: peer(), Payload: []byte{1}}
			}
			if err := set.Apply(m); (err != nil) != wantErr {
				t.Fatalf("seed %d step %d: Apply(%s %v) error = %v, want error %v", seed, step, m.Type, m.Payload, err, wantErr)
			}
			want := make([]uint32, 0, len(model))
			for p := range model {
				want = append(want, p)
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if got := set.Peers(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d after %s: set %v, model %v", seed, step, m.Type, got, want)
			}
		}
	}
}

// TestPeerSetDeltaApplyAllocatesNothing: a slot delta is folded straight
// from its payload, so applying one to a warm set — every peer it raises
// was in the set before — makes no allocation.
func TestPeerSetDeltaApplyAllocatesNothing(t *testing.T) {
	var set PeerSet
	if err := set.Apply(&Message{Type: MsgSlotSnapshot, Payload: EncodeSlotSnapshot([]uint32{1, 2, 3, 4})}); err != nil {
		t.Fatal(err)
	}
	swap := []*Message{
		{Type: MsgSlotDelta, Payload: EncodeSlotDelta([]SlotDeltaOp{{Peer: 2}, {Peer: 4}, {Peer: 5, Up: true}})},
		{Type: MsgSlotDelta, Payload: EncodeSlotDelta([]SlotDeltaOp{{Peer: 5}, {Peer: 2, Up: true}, {Peer: 4, Up: true}})},
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, m := range swap {
			if err := set.Apply(m); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("two delta Applys on a warm set allocate %.2f objects, want 0", allocs)
	}
	if got := set.Peers(); !reflect.DeepEqual(got, []uint32{1, 2, 3, 4}) {
		t.Errorf("set after the swaps = %v, want [1 2 3 4]", got)
	}
}

// TestPeerSetConcurrentApplyAndPeers is for the race detector: an agent's
// read loop applies while another goroutine (the chaos engine's invariant,
// a status page) reads.
func TestPeerSetConcurrentApplyAndPeers(t *testing.T) {
	var set PeerSet
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m := &Message{Type: MsgSlotDelta, Payload: EncodeSlotDelta([]SlotDeltaOp{{Peer: uint32(w), Up: i%2 == 0}})}
				if i%50 == 0 {
					m = &Message{Type: MsgSlotSnapshot, Payload: EncodeSlotSnapshot([]uint32{100})}
				}
				if err := set.Apply(m); err != nil {
					t.Error(err)
				}
				set.Peers()
			}
		}(w)
	}
	wg.Wait()
	for _, p := range set.Peers() {
		if p != 100 && p > 3 {
			t.Errorf("peer %d was never commanded", p)
		}
	}
}

// TestResyncAfterReconnect is the regression test for the re-sync gap: an
// agent that re-registers with an unchanged desired set used to stay
// unsynced until one of its own links next changed. Resync sends it one
// snapshot without any link change, and nothing on a second call; a
// satellite with no agent stays unsynced.
func TestResyncAfterReconnect(t *testing.T) {
	c := startController(t)
	e := NewDeltaEnforcer(c)
	var sent []*Message
	e.OnSent = func(m *Message) { sent = append(sent, m.Clone()) } // m is borrowed
	view := &PeerSet{}
	a, err := DialAgentOptions(c.Addr(), 42, 2*time.Second, AgentOptions{
		BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	applyTo(t, a, view)
	if err := e.Push(42, []uint32{3, 7}, nil, time.Time{}, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if err := e.Push(43, []uint32{9}, nil, time.Time{}, obs.SpanContext{}); err == nil {
		t.Fatal("push to a satellite with no agent succeeded")
	}
	waitForPeer(t, view, 7)
	if n := e.Resync(time.Time{}, obs.SpanContext{}); n != 0 {
		t.Fatalf("Resync with every agent synced sent %d snapshots", n)
	}

	regs := c.Registrations(42)
	a.DropConn()
	for deadline := time.Now().Add(5 * time.Second); c.Registrations(42) == regs; {
		if time.Now().After(deadline) {
			t.Fatal("agent never re-registered")
		}
		time.Sleep(time.Millisecond)
	}
	before := messages(c, "tx", MsgSlotSnapshot)
	if n := e.Resync(time.Time{}, obs.SpanContext{}); n != 1 {
		t.Fatalf("Resync after the reconnect sent %d snapshots, want 1", n)
	}
	if got := messages(c, "tx", MsgSlotSnapshot) - before; got != 1 {
		t.Errorf("tx slot-snapshot moved by %d, want 1", got)
	}
	if n := e.Resync(time.Time{}, obs.SpanContext{}); n != 0 {
		t.Errorf("second Resync sent %d snapshots, want 0", n)
	}
	if messages(c, "tx", MsgSlotDelta) != 0 {
		t.Errorf("a delta was sent with no link change")
	}
	// OnSent saw exactly what left, each with its sequence number: the
	// bootstrap snapshot and the re-sync, both to satellite 42.
	if len(sent) != 2 {
		t.Fatalf("OnSent saw %d messages, want 2", len(sent))
	}
	for _, m := range sent {
		peers, err := DecodeSlotSnapshot(m.Payload)
		if m.Type != MsgSlotSnapshot || m.SatID != 42 || m.Seq == 0 || err != nil || !reflect.DeepEqual(peers, []uint32{3, 7}) {
			t.Errorf("OnSent saw %+v (peers %v, %v)", m, peers, err)
		}
	}
	if got := e.Desired(43); !reflect.DeepEqual(got, []uint32{9}) {
		t.Errorf("Desired(43) = %v", got)
	}
}

// TestDialAgentReconnectsAndResyncs: an agent dialed with DialAgent and no
// options survives transport drops. After each DropConn it re-dials with
// the default backoff, re-registers, and the enforcer's Resync answers the
// registration with a snapshot of its desired set. Reconnects counts each
// re-registered session once, as the agent's reconnect metric does.
func TestDialAgentReconnectsAndResyncs(t *testing.T) {
	reg := obs.Default()
	wasEnabled := reg.Enabled()
	reg.SetEnabled(true)
	defer reg.SetEnabled(wasEnabled)
	metric := reg.Counter("tinyleo_southbound_agent_reconnects_total")
	metricBefore := metric.Value()

	c := startController(t)
	e := NewDeltaEnforcer(c)
	a, err := DialAgent(c.Addr(), 42, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	snapshots := make(chan []uint32, 8)
	a.OnCommand = func(m *Message) {
		if m.Type != MsgSlotSnapshot {
			t.Errorf("unexpected %s", m.Type)
			return
		}
		peers, err := DecodeSlotSnapshot(m.Payload)
		if err != nil {
			t.Error(err)
		}
		snapshots <- peers
	}
	if err := e.Push(42, []uint32{3, 7}, nil, time.Time{}, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	<-snapshots // the first push to a satellite is its snapshot

	const drops = 3
	for i := 1; i <= drops; i++ {
		regs := c.Registrations(42)
		a.DropConn()
		waitUntil(t, 5*time.Second, func() bool { return c.Registrations(42) > regs },
			"agent never re-registered")
		// The registration marks the satellite unsynced just after it is
		// counted: Resync sends nothing until then.
		waitUntil(t, 5*time.Second, func() bool { return e.Resync(time.Time{}, obs.SpanContext{}) == 1 },
			"no snapshot re-sync after the reconnect")
		select {
		case peers := <-snapshots:
			if !reflect.DeepEqual(peers, []uint32{3, 7}) {
				t.Fatalf("drop %d: re-sync snapshot %v, want [3 7]", i, peers)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("drop %d: re-sync snapshot never applied", i)
		}
	}
	if n := a.Reconnects(); n != drops {
		t.Errorf("Reconnects() = %d after %d drops", n, drops)
	}
	if d := metric.Value() - metricBefore; d != drops {
		t.Errorf("reconnect metric moved by %d after %d drops", d, drops)
	}
}

// TestAgentAppliesRestartedControllersCommands: a controller restarted on
// the same address numbers its commands from 1 again. The agent re-dials
// it, and the new controller's first snapshot is applied even though it
// carries the sequence number of the old controller's command.
func TestAgentAppliesRestartedControllersCommands(t *testing.T) {
	snapshots := make(chan []uint32, 4)
	var seqs []uint32 // what each controller's first push was numbered
	// listen starts a controller on addr and its enforcer, before the
	// agent can register with it.
	listen := func(addr string) (*Controller, *DeltaEnforcer) {
		t.Helper()
		c, err := ListenController(addr)
		if err != nil {
			t.Fatal(err)
		}
		e := NewDeltaEnforcer(c)
		e.OnSent = func(m *Message) { seqs = append(seqs, m.Seq) }
		return c, e
	}
	push := func(c *Controller, e *DeltaEnforcer, peer uint32) {
		t.Helper()
		if err := c.WaitForAgents(1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := e.Push(42, []uint32{peer}, nil, time.Time{}, obs.SpanContext{}); err != nil {
			t.Fatal(err)
		}
		select {
		case peers := <-snapshots:
			if !reflect.DeepEqual(peers, []uint32{peer}) {
				t.Fatalf("applied snapshot %v, want [%d]", peers, peer)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("the snapshot of peer %d was never applied", peer)
		}
	}

	first, e := listen("127.0.0.1:0")
	addr := first.Addr()
	a, err := DialAgent(addr, 42, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.OnCommand = func(m *Message) {
		peers, err := DecodeSlotSnapshot(m.Payload)
		if m.Type != MsgSlotSnapshot || err != nil {
			t.Errorf("unexpected %s (%v)", m.Type, err)
		}
		snapshots <- peers
	}
	push(first, e, 3)
	first.Close()

	second, e := listen(addr)
	defer second.Close()
	push(second, e, 5)
	if len(seqs) != 2 || seqs[0] != seqs[1] {
		t.Errorf("first pushes numbered %v, want one number twice", seqs)
	}
}
