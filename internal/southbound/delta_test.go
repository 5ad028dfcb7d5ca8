package southbound

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSeenRingStableMemory is the regression test for the dedup-window
// leak: the old implementation re-sliced its FIFO from the front
// (seenQ = seenQ[1:]), so the backing array grew without bound over a
// long session. The ring buffer must keep one fixed allocation while
// still deduplicating within the window and evicting beyond it.
func TestSeenRingStableMemory(t *testing.T) {
	const window = DefaultDedupWindow
	a := &Agent{}
	// Warm the ring to capacity, then remember its backing array.
	for seq := uint32(1); seq <= window; seq++ {
		if a.isDuplicate(seq) {
			t.Fatalf("fresh seq %d reported duplicate", seq)
		}
	}
	base := &a.seenRing[0]
	for seq := uint32(window + 1); seq <= 10_000; seq++ {
		if a.isDuplicate(seq) {
			t.Fatalf("fresh seq %d reported duplicate", seq)
		}
	}
	if &a.seenRing[0] != base {
		t.Error("ring backing array was reallocated")
	}
	if cap(a.seenRing) != window || len(a.seenRing) != window {
		t.Errorf("ring len/cap = %d/%d, want %d/%d", len(a.seenRing), cap(a.seenRing), window, window)
	}
	// The ring is the whole window: exactly the newest window of
	// sequence numbers, each once.
	held := slices.Clone(a.seenRing)
	slices.Sort(held)
	for i, seq := range held {
		if want := uint32(10_000 - window + 1 + i); seq != want {
			t.Fatalf("window entry %d is %d, want %d", i, seq, want)
		}
	}
	// The newest window of sequence numbers still deduplicates...
	for seq := uint32(10_000 - window + 1); seq <= 10_000; seq++ {
		if !a.isDuplicate(seq) {
			t.Fatalf("in-window seq %d not deduplicated", seq)
		}
	}
	// ...and an evicted one does not (it was forgotten, as designed).
	if a.isDuplicate(1) {
		t.Error("evicted seq 1 still remembered")
	}
}

// TestDedupWindowMatchesModel drives isDuplicate with seeded sequence
// numbers that repeat inside and outside the window and checks every
// answer against a plain set-plus-queue model: the ring grows on demand,
// never past the window.
func TestDedupWindowMatchesModel(t *testing.T) {
	const window = DefaultDedupWindow
	rng := rand.New(rand.NewSource(int64(window)))
	a := &Agent{}
	model, queue := map[uint32]bool{}, []uint32(nil)
	for step, fresh := 0, uint32(0); step < 10_000; step++ {
		var seq uint32
		switch back := rng.Intn(3 * window); {
		case rng.Intn(2) == 0 || fresh == 0:
			fresh++
			seq = fresh
		case uint32(back) < fresh:
			seq = fresh - uint32(back) // a repeat, inside or outside the window
		default:
			seq = 1
		}
		want := model[seq]
		if !want {
			model[seq] = true
			queue = append(queue, seq)
			if len(queue) > window {
				delete(model, queue[0])
				queue = queue[1:]
			}
		}
		if got := a.isDuplicate(seq); got != want {
			t.Fatalf("step %d seq %d: duplicate = %v, model says %v", step, seq, got, want)
		}
		if cap(a.seenRing) > window || len(a.seenRing) != len(model) {
			t.Fatalf("step %d: ring cap %d, %d remembered, model holds %d",
				step, cap(a.seenRing), len(a.seenRing), len(model))
		}
	}
	if len(a.seenRing) != window {
		t.Errorf("ring holds %d after 10,000 commands, want %d", len(a.seenRing), window)
	}
}

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
	for _, corrupt := range [][]byte{nil, {1, 2}, {0, 0, 0, 5, 1}, {0xFF, 0xFF, 0xFF, 0xFF}} {
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
	// acknowledged, so a restart cannot race pending-command resends
	// against the fresh agent's OnCommand installation.
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
