package mpc

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/orbit"
)

// compareSnaps fails the test unless two snapshots are byte-identical
// (deep-equal structure plus identical canonical link order).
func compareSnaps(t *testing.T, slot int, full, delta *Snapshot) {
	t.Helper()
	if !reflect.DeepEqual(full, delta) {
		t.Fatalf("slot %d: delta snapshot diverged from full compile:\nfull:  %v\ndelta: %v", slot, full, delta)
	}
	fl, dl := full.Links(), delta.Links()
	if len(fl) != len(dl) {
		t.Fatalf("slot %d: link counts differ: %d vs %d", slot, len(fl), len(dl))
	}
	for i := range fl {
		if fl[i] != dl[i] {
			t.Fatalf("slot %d: links differ at %d: %v vs %v", slot, i, fl[i], dl[i])
		}
	}
}

// TestDeltaCompileGolden is the tentpole's golden test: a 20-slot
// DeltaCompile chain — including a mid-horizon Repair feeding the next
// delta — must produce snapshots byte-identical to sequential full
// compiles on an independent controller.
func TestDeltaCompileGolden(t *testing.T) {
	cFull, _ := newController(t)
	cDelta, _ := newController(t)
	const slots, dt = 20, 60.0
	var prevFull, prevDelta *Snapshot
	for s := 0; s < slots; s++ {
		tt := float64(s) * dt
		full := cFull.Compile(tt)
		delta := cDelta.DeltaCompile(prevDelta, tt)
		compareSnaps(t, s, full, delta)
		if s == slots/2 {
			// Mid-horizon Repair on both chains: the repaired snapshot
			// becomes the next slot's warm-start anchor.
			if len(full.InterLinks) == 0 {
				t.Fatal("need links to fail mid-horizon")
			}
			victim := full.InterLinks[0]
			full, _ = cFull.Repair(full, []Link{victim}, nil, 80*time.Millisecond)
			delta, _ = cDelta.Repair(delta, []Link{victim}, nil, 80*time.Millisecond)
			compareSnaps(t, s, full, delta)
		}
		prevFull, prevDelta = full, delta
	}
	_ = prevFull
	// The delta chain must actually have warmed up: the propagation
	// cache should report skipped visibility samples, or the delta path
	// did no incremental work at all.
	if st := cDelta.CacheStats(); st.WarmSkips == 0 {
		t.Errorf("delta chain skipped no visibility samples: %+v", st)
	}
}

// TestDeltaCompilePropertyRandomHorizon fuzzes the golden property over
// randomized slot spacings, repair times, and victims: whatever the
// horizon looks like, DeltaCompile must equal full Compile bit for bit.
func TestDeltaCompilePropertyRandomHorizon(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		cFull, _ := newController(t)
		cDelta, _ := newController(t)
		repairAt := 5 + rng.Intn(10)
		tt := 0.0
		var prevDelta *Snapshot
		for s := 0; s < 20; s++ {
			tt += math.Floor(rng.Float64()*120) + 15
			full := cFull.Compile(tt)
			delta := cDelta.DeltaCompile(prevDelta, tt)
			compareSnaps(t, s, full, delta)
			if s == repairAt && len(full.InterLinks) > 0 {
				victim := full.InterLinks[rng.Intn(len(full.InterLinks))]
				var deadSats []int
				if rng.Intn(2) == 0 {
					deadSats = []int{victim[0]}
				}
				full, _ = cFull.Repair(full, []Link{victim}, deadSats, 80*time.Millisecond)
				delta, _ = cDelta.Repair(delta, []Link{victim}, deadSats, 80*time.Millisecond)
				compareSnaps(t, s, full, delta)
			}
			prevDelta = delta
		}
	}
}

// TestDeltaCompileNilPrev documents the bootstrap contract: with no
// previous snapshot the delta path is exactly a full compile.
func TestDeltaCompileNilPrev(t *testing.T) {
	cFull, _ := newController(t)
	cDelta, _ := newController(t)
	compareSnaps(t, 0, cFull.Compile(0), cDelta.DeltaCompile(nil, 0))
}

// TestMeanLifetimeEmptyCell is the regression test for the empty-cell
// guard: a neighbor cell with no visible satellites must contribute a
// clean 0 preference weight, never NaN (NaN would poison every matching
// comparison downstream).
func TestMeanLifetimeEmptyCell(t *testing.T) {
	c, _ := newController(t)
	var lt orbit.LifeTable
	lt.Reset(c.geo.Slot(0), nil, true)
	if tau := lt.MeanLifetime(0, nil); tau != 0 || math.IsNaN(tau) {
		t.Errorf("MeanLifetime over empty cell = %v, want 0", tau)
	}
	if tau := lt.MeanLifetime(0, []int{}); tau != 0 || math.IsNaN(tau) {
		t.Errorf("MeanLifetime over empty slice = %v, want 0", tau)
	}
}

// TestOneShotCompileSizesItsTableExactly: a Compile's LifeTable is thrown
// away with its scratch, so every one of its slices is made at the length
// the slot needs, while the DeltaCompile chain's keeps a quarter more room
// for the slots after its first.
func TestOneShotCompileSizesItsTableExactly(t *testing.T) {
	c, _ := newController(t)
	sc := &slotScratch{}
	c.compile(0, sc, nil)
	c.DeltaCompile(nil, 0)
	once, chain := reflect.ValueOf(sc.life), reflect.ValueOf(c.delta.life)
	roomy := 0
	for i := range once.NumField() {
		f := once.Field(i)
		if f.Kind() != reflect.Slice {
			continue
		}
		name := once.Type().Field(i).Name
		if f.Len() == 0 {
			t.Errorf("one-shot table: %s is empty", name)
		}
		if f.Cap() != f.Len() {
			t.Errorf("one-shot table: %s has length %d and capacity %d", name, f.Len(), f.Cap())
		}
		if g := chain.Field(i); g.Cap() > g.Len() {
			roomy++
		}
	}
	if roomy == 0 {
		t.Error("the chain's table has no room past its first slot")
	}
}

// TestDiffLinksNilPrevSorted is the regression test for the bootstrap
// ordering bug: DiffLinks(nil, cur) used to return cur.Links() in
// inter-then-ring concatenation order, not canonical link order.
func TestDiffLinksNilPrevSorted(t *testing.T) {
	cur := &Snapshot{
		InterLinks: []Link{{5, 6}, {7, 9}},
		RingLinks:  []Link{{1, 2}, {3, 4}},
	}
	added, removed := DiffLinks(nil, cur)
	if removed != nil {
		t.Errorf("nil prev produced removals: %v", removed)
	}
	want := []Link{{1, 2}, {3, 4}, {5, 6}, {7, 9}}
	if !reflect.DeepEqual(added, want) {
		t.Errorf("bootstrap diff not in canonical order: %v, want %v", added, want)
	}
	// Run-twice determinism: identical inputs, identical output order.
	again, _ := DiffLinks(nil, cur)
	if !reflect.DeepEqual(added, again) {
		t.Errorf("bootstrap diff not deterministic: %v vs %v", added, again)
	}
}
