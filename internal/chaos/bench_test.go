package chaos

import "testing"

// BenchmarkDeltaCompileSteady measures the operator's steady-state slot at
// the paper's control scale — bench/'s control-steady sizing: 1,764
// satellites, a DeltaCompile chain at dt = 30 s, timed after three warm-up
// slots. No slot time recurs, as in every production control loop.
func BenchmarkDeltaCompileSteady(b *testing.B) {
	tb, err := NewTestbed(TestbedConfig{Sats: 1764, SlotSeconds: 150})
	if err != nil {
		b.Fatal(err)
	}
	const dt, warmup = 30.0, 3
	snap, slot := tb.Snap, 0
	next := func() {
		slot++
		snap = tb.Ctl.DeltaCompile(snap, float64(slot)*dt)
	}
	for slot < warmup {
		next()
	}
	b.ReportAllocs()
	for b.Loop() {
		next()
	}
}
