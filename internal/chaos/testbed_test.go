package chaos

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/mpc"
)

// Regression for the builder assigning home cells in map iteration order:
// satellite 5 below holds gateway duty under two edge keys with different
// home cells, so the pre-fix code homed it to cell 1 or cell 3 depending on
// which key the runtime yielded first.
func TestNetworkFromSnapshotIsDeterministic(t *testing.T) {
	snap := &mpc.Snapshot{
		Gateways: map[[2]int][]int{
			{1, 2}: {5, 7},
			{3, 4}: {5, 8},
			{2, 1}: {6},
		},
	}
	first := networkFingerprint(BuildNetwork(snap, nil, 0, 0))
	if !strings.Contains(first, "sat 5 cell 1") {
		t.Fatalf("satellite 5 not homed to the lowest edge key's cell:\n%s", first)
	}
	for run := 1; run < 10; run++ {
		if got := networkFingerprint(BuildNetwork(snap, nil, 0, 0)); got != first {
			t.Fatalf("run %d built a different network:\n--- first\n%s--- run %d\n%s", run, first, run, got)
		}
	}
}

// testbedDigest is a sha256 over everything a caller can observe of the
// testbed's structure: satellite count, intent cells and edges, the slot-0
// snapshot's links and gateway sets, every network satellite's home cell
// and ring successor, and every link — in creation order, which seeded
// callers index into — with its delay bits.
func testbedDigest(tb *Testbed) string {
	h := sha256.New()
	fmt.Fprintf(h, "sats %d\ncells %v\n", len(tb.Sats), tb.Topo.Cells())
	for _, e := range tb.Topo.EdgeList() {
		fmt.Fprintf(h, "edge %v %d\n", e, tb.Topo.Edges[e])
	}
	fmt.Fprintf(h, "inter %v\nring %v\n", tb.Snap.InterLinks, tb.Snap.RingLinks)
	for _, k := range gatewayKeys(tb.Snap) {
		fmt.Fprintf(h, "gw %v %v\n", k, tb.Snap.Gateways[k])
	}
	for _, id := range sortedSats(tb.Net) {
		fmt.Fprintf(h, "sat %d cell %d next %d\n", id, tb.Net.Sats[id].Cell, tb.Net.Sats[id].RingNext)
	}
	for _, l := range tb.Net.Links() {
		fmt.Fprintf(h, "link %d %d %x\n", l.A, l.B, math.Float64bits(l.Delay))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// The digests were recorded at the commit before internal/experiments and
// bench/ came to share this builder (PR 15's parent), from NewTestbed and,
// for the last row, from the experiments' own newDataPlaneTestbed(Small):
// they show that neither the ledger's inputs nor the figures' moved. Link
// rate and queue limit are not part of the digest, which is why the rows
// of one size agree.
func TestTestbedIsPinned(t *testing.T) {
	const (
		sats256  = "b7b7ce5cbd6adf26c125663436a81a7c84032c6271d0d9375f7e0c5319c7c740"
		sats529  = "dddca2226986a4a9b48b2a1ceb60834e2946ba2c08e49b9f6a5d980a9e0f91d2"
		sats1764 = "a703ed264ae5ca37c60b2a3c8154c94f2dd38bffcbb6adac0de219c50a042bcd"
	)
	for _, c := range []struct {
		name string
		cfg  TestbedConfig
		want string
	}{
		{"campaign default", TestbedConfig{Sats: 256}, sats256},
		{"bench enforce-churn", TestbedConfig{Sats: 529}, sats529},
		{"bench forward-mix", TestbedConfig{Sats: 529, ISLRateBps: dataplane.ISLRateBpsDefault, QueueLimit: 4096}, sats529},
		{"bench control-steady", TestbedConfig{Sats: 1764, SlotSeconds: 150}, sats1764},
		{"experiments small", TestbedConfig{
			Sats: 256, CellDeg: 10, Slots: 8, SlotSeconds: 300,
			ISLRateBps: dataplane.ISLRateBpsDefault, QueueLimit: 4096,
		}, sats256},
	} {
		tb, err := NewTestbed(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := testbedDigest(tb); got != c.want {
			t.Errorf("%s: testbed digest %s, pinned %s", c.name, got, c.want)
		}
		for _, l := range tb.Net.Links() {
			if l.RateBps != tb.Cfg.ISLRateBps || l.QueueLimit != tb.Cfg.QueueLimit {
				t.Fatalf("%s: link %d-%d has rate %g queue %d, config says %g and %d",
					c.name, l.A, l.B, l.RateBps, l.QueueLimit, tb.Cfg.ISLRateBps, tb.Cfg.QueueLimit)
			}
		}
	}
}

// liveFingerprint renders the part of a live network a fresh build can be
// compared on: the given satellites' home cell, ring successor, and up peers
// with the bits of each up link's delay.
func liveFingerprint(n *dataplane.Network, ids []int) string {
	var b strings.Builder
	for _, id := range ids {
		s := n.Sats[id]
		if s == nil {
			fmt.Fprintf(&b, "sat %d missing\n", id)
			continue
		}
		var up []string
		for _, p := range s.Peers() {
			if l := n.Link(id, p); l.IsUp() {
				up = append(up, fmt.Sprintf("%d:%x", p, math.Float64bits(l.Delay)))
			}
		}
		fmt.Fprintf(&b, "sat %d cell %d ring %d up %v\n", id, s.Cell, s.RingNext, up)
	}
	return b.String()
}

// TestTestbedRejectsBadSlotSeconds: a slot length that gives the
// controller no finite lifetime window is refused with the window's error,
// before any supply is built over it.
func TestTestbedRejectsBadSlotSeconds(t *testing.T) {
	for _, s := range []float64{math.NaN(), math.Inf(1)} {
		_, err := NewTestbed(TestbedConfig{Sats: 256, SlotSeconds: s})
		if err == nil || !strings.Contains(err.Error(), "lifetime horizon") {
			t.Errorf("SlotSeconds %v: error %v, want the lifetime window's", s, err)
		}
	}
}

// Applying a repair's link diff to the live network the engine's way,
// advancing the testbed to a later slot, and building a network from the
// resulting snapshot are routes to one state: the same up links with the
// same delays, gateway homes and ring pointers. Before the testbed owned the
// home-cell rule, the engine homed a repair-introduced gateway to its
// lowest-numbered covered cell (13 of 14 replacements at 256 satellites), so
// anycast never used the replacement link the campaign then scored; before
// one step built and changed the network, a link kept the delay of the slot
// that created it.
func TestIncrementalApplyMatchesFullBuild(t *testing.T) {
	for _, sats := range []int{256, 529} {
		tb, err := NewTestbed(TestbedConfig{Sats: sats})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(sats)))
		introduced, rehomed, advanced := 0, 0, 0
		// check compares the live network with a fresh build of tb.Snap;
		// before holds every satellite's home cell ahead of the change.
		check := func(what string, before map[int]int) {
			t.Helper()
			fresh := BuildNetwork(tb.Snap, tb.Sats, tb.Cfg.ISLRateBps, tb.Cfg.QueueLimit)
			ids := sortedSats(fresh)
			if got, want := liveFingerprint(tb.Net, ids), liveFingerprint(fresh, ids); got != want {
				t.Fatalf("%d satellites, %s: live network differs from a fresh build\n--- live\n%s--- fresh\n%s",
					sats, what, got, want)
			}
			for _, id := range sortedSats(tb.Net) {
				s := tb.Net.Sats[id]
				if fresh.Sats[id] != nil {
					if cell, was := before[id]; !was {
						introduced++
					} else if cell != s.Cell {
						rehomed++
					}
					continue
				}
				// A satellite the snapshot no longer lists holds no duty: no
				// up link, no ring pointer.
				if fp := liveFingerprint(tb.Net, []int{id}); !strings.HasSuffix(fp, "ring -1 up []\n") {
					t.Fatalf("%d satellites, %s: retired gateway still wired: %s", sats, what, fp)
				}
			}
		}
		homes := func() map[int]int {
			before := map[int]int{}
			for id, s := range tb.Net.Sats {
				before[id] = s.Cell
			}
			return before
		}
		for round := 0; round < 20; round++ {
			snap := tb.Snap
			var failed []mpc.Link
			for _, i := range rng.Perm(len(snap.InterLinks))[:max(1, len(snap.InterLinks)/10)] {
				l := snap.InterLinks[i]
				tb.Net.Link(l[0], l[1]).Down()
				failed = append(failed, l)
			}
			next, _ := tb.Ctl.Repair(snap, failed, nil, 0)
			added, removed := mpc.DiffLinks(snap, next)
			// Both-endpoint addressing, every agent alive and acknowledging.
			acked := map[int]bool{}
			for _, b := range mpc.BatchBySatellite(added, removed) {
				acked[b.Sat] = true
			}
			before := homes()
			tb.apply(next, added, removed, acked)
			check(fmt.Sprintf("repair %d", round), before)

			// Every other round the clock moves one slot: links come and go,
			// and every link that stays up changes its delay.
			if round%2 == 1 {
				before := homes()
				added, removed := tb.Advance(tb.Snap.Time + tb.Cfg.SlotSeconds)
				advanced += len(added) + len(removed)
				check(fmt.Sprintf("slot at t=%g s", tb.Snap.Time), before)
			}
		}
		if introduced == 0 || advanced == 0 {
			t.Errorf("%d satellites: %d gateways introduced, %d links changed by Advance; the property was not exercised",
				sats, introduced, advanced)
		}
		t.Logf("%d satellites: %d gateways introduced, %d re-homed, %d links changed over 20 repairs and 10 slots",
			sats, introduced, rehomed, advanced)
	}
}

// cellRings splits a snapshot's ring links by home cell: for each intent
// cell, its gateway set (sorted) and the ring links among those gateways.
func cellRings(tb *Testbed, snap *mpc.Snapshot) (members map[int][]int, rings map[int][]mpc.Link) {
	members, rings = map[int][]int{}, map[int][]mpc.Link{}
	for _, u := range tb.Topo.Cells() {
		in := map[int]bool{}
		for _, v := range tb.Topo.Neighbors(u) {
			for _, s := range snap.Gateways[[2]int{u, v}] {
				in[s] = true
			}
		}
		for s := range in {
			members[u] = append(members[u], s)
		}
		sort.Ints(members[u])
		for _, l := range snap.RingLinks {
			if in[l[0]] && in[l[1]] {
				rings[u] = append(rings[u], l)
			}
		}
	}
	return members, rings
}

// Compile and Repair close rings with one function, so a repair with
// nothing failed is the identity (it used to re-sort every ring of four or
// more gateways from longitude order to satellite-ID order: 10 links
// rewired and 20 messages billed on this testbed, none at 256 satellites),
// and a repair of one failed link moves ring links only in the cells whose
// gateway set it changed.
func TestRepairLeavesUntouchedRingsAlone(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{Sats: 529})
	if err != nil {
		t.Fatal(err)
	}
	same, stats := tb.Ctl.Repair(tb.Snap, nil, nil, 0)
	if !reflect.DeepEqual(same.InterLinks, tb.Snap.InterLinks) || !reflect.DeepEqual(same.RingLinks, tb.Snap.RingLinks) {
		added, removed := mpc.DiffLinks(tb.Snap, same)
		t.Errorf("no-failure repair added %v and removed %v", added, removed)
	}
	if stats.Messages != 0 || len(stats.NewLinks) != 0 || stats.Unrepaired != 0 {
		t.Errorf("no-failure repair billed %+v", stats)
	}

	wasMembers, wasRings := cellRings(tb, tb.Snap)
	moved := 0
	for _, victim := range tb.Snap.InterLinks {
		next, stats := tb.Ctl.Repair(tb.Snap, []mpc.Link{victim}, nil, 0)
		if next.LinkSet()[victim] {
			t.Fatalf("failing %v: the repaired snapshot still lists it", victim)
		}
		// One report, and two instructions per link to establish.
		ringAdded, _ := mpc.DiffLinks(&mpc.Snapshot{RingLinks: tb.Snap.RingLinks}, &mpc.Snapshot{RingLinks: next.RingLinks})
		if want := 1 + 2*len(stats.NewLinks) + 2*len(ringAdded); stats.Messages != want {
			t.Fatalf("failing %v: %d messages billed for %d new inter-cell and %d new ring links, want %d",
				victim, stats.Messages, len(stats.NewLinks), len(ringAdded), want)
		}
		members, rings := cellRings(tb, next)
		for _, u := range tb.Topo.Cells() {
			if !reflect.DeepEqual(members[u], wasMembers[u]) {
				moved++
			} else if !reflect.DeepEqual(rings[u], wasRings[u]) {
				t.Fatalf("failing %v: cell %d kept gateways %v but its ring went from %v to %v",
					victim, u, members[u], wasRings[u], rings[u])
			}
		}
	}
	if moved == 0 {
		t.Error("no single-link repair changed a gateway set; the property was not exercised")
	}
}
