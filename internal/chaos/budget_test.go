package chaos

import "testing"

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
// testbed allocates what it returns — the snapshot's maps and lists, the
// coverage lists, the slot geometry — and nothing per pair, per sample or
// per matching. Measured: 188 objects per slot (1,750 before the slot
// tables and the reusable Matcher); the budget is that plus 10 %, so a map
// or a per-row slice put back on the path fails here, not in a ledger run.
func TestWarmSlotAllocationBudget(t *testing.T) {
	const budget = 206
	tb, err := NewTestbed(TestbedConfig{Sats: 529})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, warmChain(tb)); allocs > budget {
		t.Errorf("a warm slot allocates %.0f objects, budget %d", allocs, budget)
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
