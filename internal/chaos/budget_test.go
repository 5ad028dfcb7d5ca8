package chaos

import (
	"runtime"
	"testing"
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
