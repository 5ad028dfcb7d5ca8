package chaos

import "testing"

// BenchmarkDeltaCompileSteady measures the operator's steady-state slot at
// the paper's control scale — bench/'s control-steady sizing: 1,764
// satellites, a DeltaCompile chain at dt = 30 s, timed after three warm-up
// slots. No slot time recurs, as in every production control loop.
// Measured on a 2-vCPU VM, ten alternating runs of 100 slots: 10.6 ms
// (quartiles 10.0–12.4), and 80,532 B and 229 allocs per slot — the
// snapshot, its coverage lists one exact-size array, and nothing else:
// the chain refills the slot geometry it evicted two slots earlier.
func BenchmarkDeltaCompileSteady(b *testing.B) {
	tb, err := NewTestbed(TestbedConfig{Sats: 1764, SlotSeconds: 150})
	if err != nil {
		b.Fatal(err)
	}
	next := warmChain(tb)
	b.ReportAllocs()
	for b.Loop() {
		next()
	}
}
