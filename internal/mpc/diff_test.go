package mpc

import (
	"reflect"
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

// TestDeltaCompileConcurrentRepair runs a DeltaCompile chain and the
// incremental Repair path on one controller — and so one propagation
// cache — at the same time; under -race it is the data-race regression
// test for the only two control paths a running controller overlaps.
func TestDeltaCompileConcurrentRepair(t *testing.T) {
	c, _ := newController(t)
	ref, _ := newController(t)
	base := c.Compile(0)
	if len(base.InterLinks) == 0 {
		t.Fatal("no inter-links to fail over")
	}

	const slots, dt = 4, 300.0
	chain := make([]*Snapshot, slots)
	var wg sync.WaitGroup
	wg.Add(2)
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
		for k := 0; k < 3; k++ {
			fail := base.InterLinks[k%len(base.InterLinks)]
			repaired, _ := c.Repair(base, []Link{fail}, nil, 2*time.Millisecond)
			if repaired.LinkSet()[fail] {
				t.Errorf("repair %d kept the failed link %v", k, fail)
			}
		}
	}()
	wg.Wait()
	// The overlapping repairs must not have leaked into the chain.
	for s, snap := range chain {
		compareSnaps(t, s, ref.Compile(float64(s)*dt), snap)
	}
}
