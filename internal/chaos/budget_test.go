package chaos

import (
	"runtime"
	"testing"

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
// compile's allocation claim: a warm DeltaCompile slot on the 529-satellite
// testbed allocates what it returns — the snapshot's maps and lists, with
// its coverage lists as views of one exact-size array — and nothing per
// pair, per sample or per matching, and no slot geometry (the chain
// refills one it evicted). Measured: 81 objects and 14.5 KB per slot (188
// objects and 63.6 KB while every slot built a geometry and grew its
// coverage lists by append; 1,750 objects before the slot tables and the
// reusable Matcher). The budgets are those plus 10 %: one geometry is
// 529 × 76 B ≈ 40 KB, so a geometry put back on the path fails here, and
// so do append-grown coverage lists or a map or per-row slice, not in a
// ledger run.
func TestWarmSlotAllocationBudget(t *testing.T) {
	const (
		objects = 89
		bytes   = 16_000
		slots   = 50
	)
	tb, err := NewTestbed(TestbedConfig{Sats: 529})
	if err != nil {
		t.Fatal(err)
	}
	next := warmChain(tb)
	if allocs := testing.AllocsPerRun(slots, next); allocs > objects {
		t.Errorf("a warm slot allocates %.0f objects, budget %d", allocs, objects)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range slots {
		next()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / slots; per > bytes {
		t.Errorf("a warm slot allocates %d B, budget %d", per, bytes)
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
