package chaos

import (
	"runtime"
	"testing"

	"repro/internal/mpc"
	"repro/internal/orbit"
)

// warmChain returns a function compiling the next slot of a DeltaCompile
// chain at dt = 30 s on tb, already three slots in: the chain's tables have
// grown to the active set and every slot from here on is a warm one.
func warmChain(tb *Testbed) (next func()) {
	snap, slot := tb.Snap, 0
	next = func() {
		slot++
		snap = tb.Ctl.DeltaCompile(snap, float64(slot)*30)
	}
	for slot < 3 {
		next()
	}
	return next
}

// TestWarmSlotAllocationBudget is the exact work counter behind the
// compile's allocation claim: a warm DeltaCompile slot allocates what it
// returns — the snapshot and its three maps, each made at its final size,
// its coverage lists and its gateway lists each as views of one
// exact-size array, and its two link lists at their exact lengths — and
// nothing per pair, per sample or per matching, and no slot geometry (the
// chain refills one it evicted). Measured: 18 objects a slot at both
// sizes, 9,007 B at 529 satellites and 59,800 B at 1,764 (81 objects and
// 14,967 B, and 229 and 80,533 B, while the maps grew from empty and every
// gateway and link list by append; 1,750 objects at 529 before the slot
// tables and the reusable Matcher). The budgets are those plus 10 %: one
// geometry is 76 B a satellite (40 KB at 529), so a geometry put back on
// the path fails here, and so do lists grown by append or a map grown from
// empty, not in a ledger run.
func TestWarmSlotAllocationBudget(t *testing.T) {
	const slots = 50
	for _, c := range []struct {
		cfg            TestbedConfig
		objects, bytes uint64
	}{
		{TestbedConfig{Sats: 529}, 20, 9_900},
		{TestbedConfig{Sats: 1764, SlotSeconds: 150}, 20, 65_800},
	} {
		tb, err := NewTestbed(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		next := warmChain(tb)
		if allocs := testing.AllocsPerRun(slots, next); allocs > float64(c.objects) {
			t.Errorf("%d satellites: a warm slot allocates %.0f objects, budget %d", c.cfg.Sats, allocs, c.objects)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range slots {
			next()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / slots; per > c.bytes {
			t.Errorf("%d satellites: a warm slot allocates %d B, budget %d", c.cfg.Sats, per, c.bytes)
		}
	}
}

// TestColdChainAllocationBudget holds a chain's start to one set of
// tables: a fresh controller on the 529-satellite testbed compiles
// DeltaCompile(nil, 0) in the chain's own memory, then 7 slots at
// dt = 30 s. Measured: 255 objects and 227,427 B (800 objects and
// 379,969 B while the cold slot compiled in a throwaway scratch, the
// chain's tables were sized at slot 1 and regrown as its active set gained
// numbers, and every snapshot's maps and lists grew by append). The
// budgets are those plus 10 %: a second LifeTable, or a regrowth of its
// tables, fails here.
func TestColdChainAllocationBudget(t *testing.T) {
	const objectsBudget, bytesBudget = 281, 250_000
	tb, err := NewTestbed(TestbedConfig{Sats: 529})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tb.Ctl.Config()
	const chains = 5
	var objects, bytes uint64
	for range chains {
		ctl, err := mpc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		coldChain(ctl)
		runtime.ReadMemStats(&after)
		objects += (after.Mallocs - before.Mallocs) / chains
		bytes += (after.TotalAlloc - before.TotalAlloc) / chains
	}
	if objects > objectsBudget || bytes > bytesBudget {
		t.Errorf("a cold chain allocates %d objects and %d B, budgets %d and %d", objects, bytes, objectsBudget, bytesBudget)
	}
}

// coldChain compiles the cold 8-slot chain of TestColdChainAllocationBudget
// and BenchmarkDeltaCompileColdChain on a fresh controller.
func coldChain(ctl *mpc.Controller) {
	var snap *mpc.Snapshot
	for slot := range 8 {
		snap = ctl.DeltaCompile(snap, float64(slot)*30)
	}
}

// TestWarmChainReusesRuns: at control-steady's sizing (1,764 satellites,
// dt = step = 30 s) the chain's lifetime walks take 0.88–0.89 of their
// samples from the previous slot's runs — the ratio the hashed run map
// reached, sample for sample.
func TestWarmChainReusesRuns(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{Sats: 1764, SlotSeconds: 150})
	if err != nil {
		t.Fatal(err)
	}
	next := warmChain(tb)
	before := tb.Ctl.CacheStats()
	for k := 0; k < 10; k++ {
		next()
	}
	st := tb.Ctl.CacheStats()
	samples, skips := st.WarmSamples-before.WarmSamples, st.WarmSkips-before.WarmSkips
	if ratio := float64(skips) / float64(samples); ratio < 0.87 || ratio > 0.91 {
		t.Errorf("warm hit ratio %.4f (%d of %d samples), want 0.89 ± 0.02", ratio, skips, samples)
	}
}

// TestWarmSlotWorkBudget holds the slot compile to exact counts of its
// work, which repeat run for run where its timings spread by tens of
// percent. First, every CacheStats field after a 30-slot DeltaCompile chain
// at dt = 30 s from the testbed's slot-0 compile is pinned, at 529
// satellites and at control-steady's sizing, 1,764: how many τ and
// positions a chain looks up, walks and propagates is fixed by the matching,
// not by how each is computed, so a faster compile keeps these counts
// (CoverExact, the coverage pairs left to the exact angle, is 0). Then,
// at 1,764, the next 10 slots stay within ceilings per slot: τ lookups
// (hits, walks and pruned pairs: 716,954 measured), τ fills (walks and
// pruned pairs: 38,860), positions propagated (5,313, of which 1,764 are
// the slot geometry's) and coverage pairs left to the exact angle (0
// measured). The ceilings are those plus about 1 %, and one exact pair a
// slot: a second lookup per pair, a walk per lookup or a cold position
// table does not fit.
func TestWarmSlotWorkBudget(t *testing.T) {
	pinned := map[int]orbit.CacheStats{
		529: {PosHits: 738204, PosMisses: 35699, LifeHits: 411685, LifeMisses: 38835,
			PrunedPairs: 7667, WarmSamples: 378991, WarmSkips: 239},
		1764: {PosHits: 3120436, PosMisses: 165698, LifeHits: 20984440, LifeMisses: 918718,
			PrunedPairs: 284590, WarmSamples: 9463485, WarmSkips: 7847760},
	}
	const (
		slots            = 10
		lookupsPerSlot   = 724_000
		fillsPerSlot     = 39_250
		posMissesPerSlot = 5_370
		exactPerSlot     = 1
	)
	for _, cfg := range []TestbedConfig{{Sats: 529}, {Sats: 1764, SlotSeconds: 150}} {
		tb, err := NewTestbed(cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap, slot := tb.Snap, 0
		next := func() {
			slot++
			snap = tb.Ctl.DeltaCompile(snap, float64(slot)*30)
		}
		for slot < 30 {
			next()
		}
		st := tb.Ctl.CacheStats()
		if st != pinned[cfg.Sats] {
			t.Errorf("%d satellites, 30 slots: %+v, pinned %+v", cfg.Sats, st, pinned[cfg.Sats])
		}
		if cfg.Sats != 1764 {
			continue
		}
		for range slots {
			next()
		}
		d := tb.Ctl.CacheStats()
		lookups := (d.LifeHits + d.LifeMisses + d.PrunedPairs - st.LifeHits - st.LifeMisses - st.PrunedPairs) / slots
		fills := (d.LifeMisses + d.PrunedPairs - st.LifeMisses - st.PrunedPairs) / slots
		pos, exact := (d.PosMisses-st.PosMisses)/slots, (d.CoverExact-st.CoverExact)/slots
		if lookups > lookupsPerSlot || fills > fillsPerSlot || pos > posMissesPerSlot || exact > exactPerSlot {
			t.Errorf("a warm slot at 1,764 satellites does %d τ lookups, %d τ fills, %d positions and %d exact coverage pairs; ceilings %d, %d, %d, %d",
				lookups, fills, pos, exact, lookupsPerSlot, fillsPerSlot, posMissesPerSlot, exactPerSlot)
		}
	}
}
