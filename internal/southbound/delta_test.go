package southbound

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSlotDeltaCodecRoundTrip covers the delta/snapshot payload codecs,
// including empty batches and corrupt inputs.
func TestSlotDeltaCodecRoundTrip(t *testing.T) {
	ops := []SlotDeltaOp{{Peer: 9, Up: true}, {Peer: 0xFFFFFFFF, Up: false}, {Peer: 0, Up: true}}
	got, err := DecodeSlotDelta(EncodeSlotDelta(ops))
	if err != nil || !reflect.DeepEqual(got, ops) {
		t.Errorf("delta roundtrip = %v, %v; want %v", got, err, ops)
	}
	if got, err := DecodeSlotDelta(EncodeSlotDelta(nil)); err != nil || got != nil {
		t.Errorf("empty delta roundtrip = %v, %v", got, err)
	}
	peers := []uint32{3, 1, 4, 1<<31 + 5}
	if got, err := DecodeSlotSnapshot(EncodeSlotSnapshot(peers)); err != nil || !reflect.DeepEqual(got, peers) {
		t.Errorf("snapshot roundtrip = %v, %v; want %v", got, err, peers)
	}
	if got, err := DecodeSlotSnapshot(EncodeSlotSnapshot(nil)); err != nil || got != nil {
		t.Errorf("empty snapshot roundtrip = %v, %v", got, err)
	}
	for _, corrupt := range [][]byte{
		nil, {1, 2}, {0, 0, 0, 5, 1}, {0xFF, 0xFF, 0xFF, 0xFF},
		{0, 0, 0, 1, 2, 0, 0, 0, 9}, // one op whose direction byte is neither down (0) nor up (1)
	} {
		if _, err := DecodeSlotDelta(corrupt); err == nil {
			t.Errorf("DecodeSlotDelta(%v) accepted corrupt payload", corrupt)
		}
		if _, err := DecodeSlotSnapshot(corrupt); err == nil {
			t.Errorf("DecodeSlotSnapshot(%v) accepted corrupt payload", corrupt)
		}
	}
	// The payloads ride the standard message frame unchanged.
	var buf bytes.Buffer
	want := &Message{Type: MsgSlotDelta, SatID: 7, Seq: 3, Payload: EncodeSlotDelta(ops)}
	if err := WriteMessage(&buf, want); err != nil {
		t.Fatal(err)
	}
	m, err := ReadMessage(&buf)
	if err != nil || !reflect.DeepEqual(m, want) {
		t.Errorf("framed delta roundtrip = %+v, %v", m, err)
	}
}

// applyTo installs view as a's applied peer set: every command is folded
// through PeerSet.Apply, as tinyleo-sat and the chaos agents do.
func applyTo(t *testing.T, a *Agent, view *PeerSet) {
	a.OnCommand = func(m *Message) {
		if err := view.Apply(m); err != nil {
			t.Errorf("apply %s: %v", m.Type, err)
		}
	}
}

func waitForPeer(t *testing.T, view *PeerSet, peer uint32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if slices.Contains(view.Peers(), peer) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("peer %d never appeared in view", peer)
}

// TestDeltaEnforcerPush exercises the basic enforcement contract: the
// first push to a satellite is a full snapshot (never-synced), later
// pushes are per-op deltas, and a no-change push to a synced satellite
// sends nothing at all.
func TestDeltaEnforcerPush(t *testing.T) {
	c := startController(t)
	e := NewDeltaEnforcer(c)
	view := &PeerSet{}
	a, err := DialAgent(c.Addr(), 42, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	applyTo(t, a, view)

	if err := e.Push(42, []uint32{7, 3}, nil, time.Time{}, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	waitForPeer(t, view, 7)
	if got := view.Peers(); !reflect.DeepEqual(got, []uint32{3, 7}) {
		t.Errorf("view after bootstrap = %v", got)
	}
	if n := messages(c, "tx", MsgSlotSnapshot); n != 1 {
		t.Errorf("bootstrap sent %d snapshots, want 1", n)
	}

	if err := e.Push(42, []uint32{9}, []uint32{3}, time.Time{}, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	waitForPeer(t, view, 9)
	if got := view.Peers(); !reflect.DeepEqual(got, []uint32{7, 9}) {
		t.Errorf("view after delta = %v", got)
	}
	if n := messages(c, "tx", MsgSlotDelta); n != 1 {
		t.Errorf("sent %d deltas, want 1", n)
	}

	// A no-change push to a synced satellite is silent.
	before := messages(c, "tx", MsgSlotDelta) + messages(c, "tx", MsgSlotSnapshot)
	if err := e.Push(42, []uint32{9}, []uint32{3}, time.Time{}, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if after := messages(c, "tx", MsgSlotDelta) + messages(c, "tx", MsgSlotSnapshot); after != before {
		t.Errorf("no-op push sent %d messages", after-before)
	}
	if got := e.Desired(42); !reflect.DeepEqual(got, []uint32{7, 9}) {
		t.Errorf("Desired = %v", got)
	}
}

// TestDeltaPushCountsOnlySentMessages: a push to a satellite with no agent
// fails in Send and is rolled back, so none of the four delta series may
// move (they counted it before, as traffic that never left); the next push
// to that satellite, once its agent is there, is a snapshot. A push to a
// registered satellite counts exactly as before.
func TestDeltaPushCountsOnlySentMessages(t *testing.T) {
	c := startController(t)
	e := NewDeltaEnforcer(c)
	series := func() [5]int64 {
		reg := c.Metrics()
		return [5]int64{
			reg.Counter(MetricDeltaMessages, "kind", "snapshot").Value(),
			reg.Counter(MetricDeltaMessages, "kind", "delta").Value(),
			reg.Counter(MetricDeltaOps).Value(),
			reg.Counter(MetricDeltaResyncs).Value(),
			reg.Counter(MetricDeltaBytes).Value(),
		}
	}

	if err := e.Push(42, []uint32{7, 3}, nil, time.Time{}, obs.SpanContext{}); err == nil {
		t.Fatal("push to an unregistered satellite succeeded")
	}
	if got := series(); got != [5]int64{} {
		t.Errorf("series after a push that never left = %v, want all zero", got)
	}
	// The desired set kept the change; the satellite is unsynced.
	if got := e.Desired(42); !reflect.DeepEqual(got, []uint32{3, 7}) {
		t.Errorf("Desired = %v", got)
	}

	view := &PeerSet{}
	a, err := DialAgent(c.Addr(), 42, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	applyTo(t, a, view)
	if err := e.Push(42, []uint32{9}, nil, time.Time{}, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	waitForPeer(t, view, 9)
	if got := view.Peers(); !reflect.DeepEqual(got, []uint32{3, 7, 9}) {
		t.Errorf("view after the first push that left = %v, want the full snapshot", got)
	}
	snapBytes := int64(len(EncodeSlotSnapshot([]uint32{3, 7, 9})))
	if got, want := series(), ([5]int64{1, 0, 0, 1, snapBytes}); got != want {
		t.Errorf("series after the snapshot = %v, want %v", got, want)
	}

	// Registered and synced: a delta, counted as it always was.
	if err := e.Push(42, []uint32{11}, []uint32{3}, time.Time{}, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	waitForPeer(t, view, 11)
	deltaBytes := int64(len(EncodeSlotDelta([]SlotDeltaOp{{Peer: 3}, {Peer: 11, Up: true}})))
	if got, want := series(), ([5]int64{1, 1, 2, 1, snapBytes + deltaBytes}); got != want {
		t.Errorf("series after the delta = %v, want %v", got, want)
	}
}

// TestDeltaResyncOnRestart is the convergence half of the delta
// property test: a delta-enforced agent that restarts mid-horizon (fresh
// process, empty dataplane view — the worst case for composing per-op
// deltas) must converge to exactly the view a snapshot-only push
// sequence produces, because re-registration forces a full-snapshot
// re-sync before deltas resume.
func TestDeltaResyncOnRestart(t *testing.T) {
	c := startController(t)
	e := NewDeltaEnforcer(c)

	const deltaSat, snapSat = 42, 43
	deltaView, snapView := &PeerSet{}, &PeerSet{}
	dial := func(sat uint32, view *PeerSet) *Agent {
		t.Helper()
		a, err := DialAgent(c.Addr(), sat, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		applyTo(t, a, view)
		return a
	}
	deltaAgent := dial(deltaSat, deltaView)
	snapAgent := dial(snapSat, snapView)
	defer func() { deltaAgent.Close(); snapAgent.Close() }()

	// waitAcked blocks until every delta/snapshot push so far has been
	// acknowledged, so the restart lands between slots rather than
	// mid-apply.
	waitAcked := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			sent := messages(c, "tx", MsgSlotDelta) + messages(c, "tx", MsgSlotSnapshot)
			if messages(c, "rx", MsgAck) >= sent {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatal("pushes never fully acknowledged")
	}

	rng := rand.New(rand.NewSource(3))
	expected := map[uint32]bool{}
	for slot := 0; slot < 10; slot++ {
		if slot == 5 {
			// Mid-horizon restart: the agent process dies and comes back
			// with an empty view, having missed whatever was applied
			// before. OnRegister must force the enforcer to re-sync.
			waitAcked()
			deltaAgent.Close()
			deltaView = &PeerSet{}
			deltaAgent = dial(deltaSat, deltaView)
		}
		var add, del []uint32
		for p := range expected {
			if rng.Intn(3) == 0 {
				del = append(del, p)
			}
		}
		for i := 0; i < 1+rng.Intn(4); i++ {
			add = append(add, uint32(100+rng.Intn(20)))
		}
		for _, p := range del {
			delete(expected, p)
		}
		for _, p := range add {
			expected[p] = true
		}
		if err := e.Push(deltaSat, add, del, time.Time{}, obs.SpanContext{}); err != nil {
			t.Fatalf("slot %d: delta push: %v", slot, err)
		}
		// The reference chain receives the same batches but is forced to
		// a full snapshot every slot.
		e.MarkUnsynced(snapSat)
		if err := e.Push(snapSat, add, del, time.Time{}, obs.SpanContext{}); err != nil {
			t.Fatalf("slot %d: snapshot push: %v", slot, err)
		}
	}
	// Sentinel push: commands to one satellite are delivered in order, so
	// once the sentinel peer is visible every earlier batch has applied.
	const sentinel = 999
	if err := e.Push(deltaSat, []uint32{sentinel}, nil, time.Time{}, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	e.MarkUnsynced(snapSat)
	if err := e.Push(snapSat, []uint32{sentinel}, nil, time.Time{}, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	waitForPeer(t, deltaView, sentinel)
	waitForPeer(t, snapView, sentinel)
	expected[sentinel] = true

	dv, sv := deltaView.Peers(), snapView.Peers()
	if !reflect.DeepEqual(dv, sv) {
		t.Errorf("delta view %v != snapshot view %v", dv, sv)
	}
	want := make([]uint32, 0, len(expected))
	for p := range expected {
		want = append(want, p)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if !reflect.DeepEqual(dv, want) {
		t.Errorf("delta view %v != expected %v", dv, want)
	}
	// The restart actually exercised the re-sync path: at least two
	// snapshots went to the delta satellite (bootstrap + post-restart),
	// and deltas were still used when synced.
	if n := c.Metrics().Counter(MetricDeltaResyncs).Value(); n < 12 {
		t.Errorf("resyncs = %d, want >= 12 (10 forced + bootstrap + restart)", n)
	}
	if n := c.Metrics().Counter(MetricDeltaMessages, "kind", "delta").Value(); n == 0 {
		t.Error("no slot-delta messages were ever sent")
	}
}

// TestFailureTeardownThroughEnforcer is the regression test for a failure
// hook that answered a report with a raw per-link command: the agent tore the link
// down while the enforcer still listed the peer, and the two stayed apart
// until an unrelated re-sync. Routed through Push (as tinyleo-ctl's
// OnFailure does), the teardown leaves the enforcer's desired set and the
// agent's applied set equal.
func TestFailureTeardownThroughEnforcer(t *testing.T) {
	c := startController(t)
	e := NewDeltaEnforcer(c)
	c.OnFailure = func(report *Message) []*Message {
		if err := e.Push(report.SatID, nil, []uint32{report.Peer}, time.Time{}, obs.SpanContext{}); err != nil {
			t.Errorf("teardown push: %v", err)
		}
		return nil
	}
	view := &PeerSet{}
	a, err := DialAgent(c.Addr(), 42, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	applyTo(t, a, view)

	if err := e.Push(42, []uint32{3, 7, 9}, nil, time.Time{}, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	waitForPeer(t, view, 9)
	if err := a.ReportFailure(7); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for slices.Contains(view.Peers(), uint32(7)) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	want := []uint32{3, 9}
	if got := e.Desired(42); !reflect.DeepEqual(got, want) {
		t.Errorf("Desired after the report = %v, want %v", got, want)
	}
	if got := view.Peers(); !reflect.DeepEqual(got, []uint32{3, 9}) {
		t.Errorf("agent applied %v, enforcer desires %v", got, want)
	}
}

// TestConcurrentPushesKeepTheirPayloads: pushes to different satellites run
// at once — the churn bench's OnFailure repair push does, beside the driver
// — and each builds its command in its own pooled scratch. Eight goroutines
// push distinct op batches, over disjoint peer ranges and of different
// sizes, to eight agents; every agent's PeerSet must end as its own pushes
// set it, and so must the enforcer's desired set.
func TestConcurrentPushesKeepTheirPayloads(t *testing.T) {
	const (
		sats   = 8
		pushes = 200
	)
	c := startController(t)
	e := NewDeltaEnforcer(c)
	views := make([]*PeerSet, sats)
	for i := range views {
		a, err := DialAgent(c.Addr(), uint32(100+i), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		views[i] = &PeerSet{}
		applyTo(t, a, views[i])
	}
	want := make([][]uint32, sats)
	var wg sync.WaitGroup
	for i := range sats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i + 1)))
			sat, base := uint32(100+i), uint32(1000*(i+1))
			model := map[uint32]bool{}
			for n := 0; n < pushes; n++ {
				var add, del []uint32
				for k := rng.Intn(i + 2); k >= 0; k-- {
					p := base + uint32(rng.Intn(4*(i+1)))
					if rng.Intn(2) == 0 {
						add = append(add, p)
					} else {
						del = append(del, p)
					}
				}
				for _, p := range del {
					delete(model, p)
				}
				for _, p := range add {
					model[p] = true
				}
				if err := e.Push(sat, add, del, time.Time{}, obs.SpanContext{}); err != nil {
					t.Errorf("sat %d push %d: %v", sat, n, err)
					return
				}
			}
			for p := range model {
				want[i] = append(want[i], p)
			}
			slices.Sort(want[i])
		}()
	}
	wg.Wait()
	waitUntil(t, 10*time.Second, func() bool { return c.PendingAcks() == 0 }, "pushes never all acked")
	for i, view := range views {
		sat := uint32(100 + i)
		if got := view.Peers(); !slices.Equal(got, want[i]) {
			t.Errorf("sat %d applied %v, its pushes set %v", sat, got, want[i])
		}
		if got := e.Desired(sat); !slices.Equal(got, want[i]) {
			t.Errorf("enforcer desires %v for sat %d, its pushes set %v", got, sat, want[i])
		}
	}
}
