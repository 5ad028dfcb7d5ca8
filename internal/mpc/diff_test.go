package mpc

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestDiffLinksBatchBySatellite drives a snapshot pair through DiffLinks
// and BatchBySatellite: the diff is canonical and deduplicated, and each
// satellite gets exactly one batch, satellites ascending, carrying its
// peer on every link that touches it.
func TestDiffLinksBatchBySatellite(t *testing.T) {
	cases := []struct {
		name           string
		prev, cur      *Snapshot
		added, removed []Link
		batches        []SatBatch
	}{
		{
			name:  "nil prev adds everything in canonical order",
			cur:   &Snapshot{InterLinks: []Link{{3, 4}}, RingLinks: []Link{{1, 2}}},
			added: []Link{{1, 2}, {3, 4}},
			batches: []SatBatch{
				{Sat: 1, Add: []uint32{2}}, {Sat: 2, Add: []uint32{1}},
				{Sat: 3, Add: []uint32{4}}, {Sat: 4, Add: []uint32{3}},
			},
		},
		{
			name:    "disjoint snapshots",
			prev:    &Snapshot{InterLinks: []Link{{1, 2}}},
			cur:     &Snapshot{InterLinks: []Link{{3, 4}}},
			added:   []Link{{3, 4}},
			removed: []Link{{1, 2}},
			batches: []SatBatch{
				{Sat: 1, Del: []uint32{2}}, {Sat: 2, Del: []uint32{1}},
				{Sat: 3, Add: []uint32{4}}, {Sat: 4, Add: []uint32{3}},
			},
		},
		{
			name:    "overlapping snapshots share a satellite across add and remove",
			prev:    &Snapshot{InterLinks: []Link{{1, 2}, {2, 3}}},
			cur:     &Snapshot{InterLinks: []Link{{2, 3}, {2, 5}, {2, 4}}},
			added:   []Link{{2, 4}, {2, 5}},
			removed: []Link{{1, 2}},
			batches: []SatBatch{
				{Sat: 1, Del: []uint32{2}}, // a satellite with only removals
				{Sat: 2, Add: []uint32{4, 5}, Del: []uint32{1}},
				{Sat: 4, Add: []uint32{2}}, {Sat: 5, Add: []uint32{2}},
			},
		},
		{
			name:  "nil prev lists a pair carried as inter-cell and ring link once",
			cur:   &Snapshot{InterLinks: []Link{{1, 2}}, RingLinks: []Link{{1, 2}, {2, 3}}},
			added: []Link{{1, 2}, {2, 3}},
			batches: []SatBatch{
				{Sat: 1, Add: []uint32{2}}, {Sat: 2, Add: []uint32{1, 3}}, {Sat: 3, Add: []uint32{2}},
			},
		},
		{
			name: "identical snapshots",
			prev: &Snapshot{InterLinks: []Link{{1, 2}}},
			cur:  &Snapshot{RingLinks: []Link{{1, 2}}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			added, removed := DiffLinks(tc.prev, tc.cur)
			if !reflect.DeepEqual(added, tc.added) || !reflect.DeepEqual(removed, tc.removed) {
				t.Fatalf("DiffLinks = +%v −%v, want +%v −%v", added, removed, tc.added, tc.removed)
			}
			got := BatchBySatellite(added, removed)
			if len(got) == 0 {
				got = nil
			}
			if !reflect.DeepEqual(got, tc.batches) {
				t.Fatalf("BatchBySatellite = %+v, want %+v", got, tc.batches)
			}
		})
	}
}

// TestDiffLinksAllocatesExactLists: a diff with links on both sides
// allocates its two lists and nothing else, each at exact size.
func TestDiffLinksAllocatesExactLists(t *testing.T) {
	prev := &Snapshot{InterLinks: []Link{{1, 2}, {2, 3}, {5, 9}}, RingLinks: []Link{{4, 5}}}
	cur := &Snapshot{InterLinks: []Link{{2, 3}, {2, 4}, {6, 7}}, RingLinks: []Link{{4, 5}, {8, 9}}}
	var added, removed []Link
	if allocs := testing.AllocsPerRun(100, func() { added, removed = DiffLinks(prev, cur) }); allocs != 2 {
		t.Errorf("DiffLinks allocates %.0f objects, want 2", allocs)
	}
	if len(added) != 3 || cap(added) != 3 || len(removed) != 2 || cap(removed) != 2 {
		t.Errorf("added len/cap %d/%d, removed %d/%d; want 3/3 and 2/2", len(added), cap(added), len(removed), cap(removed))
	}
}

// setDiff is DiffLinks as it was before the merge walk — two link sets and
// a sort — kept as the reference the walk is tested against.
func setDiff(prev, cur *Snapshot) (added, removed []Link) {
	var ps map[Link]bool
	if prev != nil {
		ps = prev.LinkSet()
	}
	cs := cur.LinkSet()
	for l := range cs {
		if !ps[l] {
			added = append(added, l)
		}
	}
	for l := range ps {
		if !cs[l] {
			removed = append(removed, l)
		}
	}
	slices.SortFunc(added, cmpLink)
	slices.SortFunc(removed, cmpLink)
	return
}

// TestDiffLinksMatchesSetDiff is the merge walk's property test: on seeded
// snapshot pairs — sorted lists as compile produces them, shuffled lists
// as hand-built snapshots carry, pairs listed twice in one list or once in
// each, empty sides, nil prev — and on a compiled chain with a repaired
// snapshot in it, DiffLinks returns what the set difference does.
func TestDiffLinksMatchesSetDiff(t *testing.T) {
	check := func(name string, prev, cur *Snapshot) {
		t.Helper()
		added, removed := DiffLinks(prev, cur)
		wantAdded, wantRemoved := setDiff(prev, cur)
		if !reflect.DeepEqual(added, wantAdded) || !reflect.DeepEqual(removed, wantRemoved) {
			t.Fatalf("%s: DiffLinks = +%v −%v, set difference +%v −%v", name, added, removed, wantAdded, wantRemoved)
		}
	}
	rng := rand.New(rand.NewSource(20))
	links := func(n int, sorted bool) []Link {
		var out []Link
		for len(out) < n {
			l := MakeLink(rng.Intn(12), 12+rng.Intn(12))
			out = append(out, l)
			if rng.Intn(8) == 0 {
				out = append(out, l) // listed twice
			}
		}
		if sorted {
			slices.SortFunc(out, cmpLink)
		}
		return out
	}
	for trial := 0; trial < 500; trial++ {
		sorted := trial%2 == 0
		snap := func() *Snapshot {
			return &Snapshot{InterLinks: links(rng.Intn(30), sorted), RingLinks: links(rng.Intn(30), sorted)}
		}
		prev, cur := snap(), snap()
		if trial%5 == 0 {
			prev = nil
		}
		check(fmt.Sprintf("seeded pair %d", trial), prev, cur)
	}

	c, _ := newController(t)
	var prev *Snapshot
	for s := 0; s < 8; s++ {
		cur := c.DeltaCompile(prev, float64(s)*60)
		check(fmt.Sprintf("compiled slot %d", s), prev, cur)
		if s == 4 {
			// A repaired snapshot can list one pair as inter-cell and ring
			// link; make sure this one does.
			cur, _ = c.Repair(cur, cur.InterLinks[:1], nil, 0)
			cur.InterLinks = append(cur.InterLinks, cur.RingLinks[0])
			slices.SortFunc(cur.InterLinks, cmpLink)
			check("repaired slot against its plan", prev, cur)
			check("repaired slot from nothing", nil, cur)
		}
		prev = cur
	}
}

// TestDeltaCompileConcurrentRepair runs a DeltaCompile chain, cold
// Compiles and the incremental Repair path on one controller — and so one
// propagation cache, whose slot geometries the chain evicts as it goes —
// at the same time; under -race it is the data-race regression test for
// the control paths a running controller overlaps. Only the chain shares
// a τ table between its slots; every other compile owns its own.
func TestDeltaCompileConcurrentRepair(t *testing.T) {
	c, _ := newController(t)
	ref, _ := newController(t)
	base := c.Compile(0)
	if len(base.InterLinks) == 0 {
		t.Fatal("no inter-links to fail over")
	}

	const slots, dt = 4, 300.0
	chain := make([]*Snapshot, slots)
	cold := make([]*Snapshot, slots)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		var prev *Snapshot
		for s := range chain {
			prev = c.DeltaCompile(prev, float64(s)*dt)
			chain[s] = prev
		}
	}()
	go func() {
		defer wg.Done()
		for s := range cold {
			cold[s] = c.Compile(float64(s) * dt)
		}
	}()
	go func() {
		defer wg.Done()
		for k := 0; k < 3; k++ {
			fail := base.InterLinks[k%len(base.InterLinks)]
			repaired, _ := c.Repair(base, []Link{fail}, nil, 2*time.Millisecond)
			if repaired.LinkSet()[fail] {
				t.Errorf("repair %d kept the failed link %v", k, fail)
			}
		}
	}()
	wg.Wait()
	// The overlapping repairs and compiles must not have leaked into each
	// other.
	for s := range chain {
		want := ref.Compile(float64(s) * dt)
		compareSnaps(t, s, want, chain[s])
		compareSnaps(t, s, want, cold[s])
	}
}

// TestDeltaChainDropsOldSlotGeometry: a DeltaCompile chain keeps the slot
// geometry of prev and of the slot it compiles and drops what is older, so
// a long-running controller's cache does not grow with the slot count; a
// Repair of a snapshot whose geometry is gone rebuilds it and answers as
// it did before the eviction.
func TestDeltaChainDropsOldSlotGeometry(t *testing.T) {
	c, _ := newController(t)
	first := c.Compile(0)
	if len(first.InterLinks) == 0 {
		t.Fatal("no inter-links to fail over")
	}
	fail := []Link{first.InterLinks[0]}
	want, _ := c.Repair(first, fail, nil, 0)
	prev := first
	for s := 1; s <= 200; s++ {
		prev = c.DeltaCompile(prev, float64(s)*30)
		if n := c.geo.NumSlots(); n > 3 {
			t.Fatalf("slot %d: cache retains %d slot geometries, want at most 3", s, n)
		}
	}
	got, _ := c.Repair(first, fail, nil, 0)
	compareSnaps(t, 0, want, got)
}

// TestChainSlotGeometryOutlivesTheChain: a geometry taken from the cache's
// public Slot at a chain slot's time, and the one a Repair of that slot
// uses, is never refilled by the chain, which recycles the memory of the
// geometries only it received: five slots later the held geometry still
// reads as its own slot time, and a Repair of the slot answers as it did
// and as one of the same slot compiled from scratch.
func TestChainSlotGeometryOutlivesTheChain(t *testing.T) {
	c, _ := newController(t)
	ref, _ := newController(t)
	const dt, at = 60.0, 3
	prev := c.Compile(0)
	for s := 1; s <= at; s++ {
		prev = c.DeltaCompile(prev, float64(s)*dt)
	}
	slot := prev
	if len(slot.InterLinks) == 0 {
		t.Fatal("no inter-links to fail over")
	}
	fail := []Link{slot.InterLinks[0]}
	repaired, _ := c.Repair(slot, fail, nil, 0)
	held := c.geo.Slot(slot.Time)
	for s := at + 1; s <= at+5; s++ {
		prev = c.DeltaCompile(prev, float64(s)*dt)
	}
	for i, e := range c.cfg.Sats {
		if got, want := held.Position(i), e.PositionECI(slot.Time); got != want {
			t.Fatalf("sat %d: held position %v != %v at t=%v", i, got, want, slot.Time)
		}
		if got, want := held.SubPoint(i), e.SubSatellitePoint(slot.Time); got != want {
			t.Fatalf("sat %d: held subpoint %v != %v at t=%v", i, got, want, slot.Time)
		}
	}
	again, _ := c.Repair(slot, fail, nil, 0)
	compareSnaps(t, at, repaired, again)
	want, _ := ref.Repair(ref.Compile(slot.Time), fail, nil, 0)
	compareSnaps(t, at, want, again)
}

// TestRepairOfPrevDuringDeltaCompile repairs every chain snapshot on
// another goroutine while the chain compiles the next slots from it — an
// agent-reported failure overlapping the slot loop. Under -race a Repair
// reading a geometry the chain refills is a reported race; each repair
// must equal the same repair of the slot compiled from scratch.
func TestRepairOfPrevDuringDeltaCompile(t *testing.T) {
	c, _ := newController(t)
	ref, _ := newController(t)
	const slots, dt = 12, 60.0
	snaps := make(chan *Snapshot, slots)
	repaired := make([]*Snapshot, slots)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for s := range snaps {
			if len(s.InterLinks) > 0 {
				repaired[int(s.Time/dt)], _ = c.Repair(s, s.InterLinks[:1], nil, 0)
			}
		}
	}()
	prev := c.Compile(0)
	for s := 1; s <= slots; s++ {
		snaps <- prev
		prev = c.DeltaCompile(prev, float64(s)*dt)
	}
	close(snaps)
	wg.Wait()
	for s, got := range repaired {
		if got == nil {
			t.Fatalf("slot %d: no inter-links to fail over", s)
		}
		scratch := ref.Compile(float64(s) * dt)
		want, _ := ref.Repair(scratch, scratch.InterLinks[:1], nil, 0)
		compareSnaps(t, s, want, got)
	}
}
