package chaos

import "testing"

// BenchmarkDeltaCompileSteady measures the operator's steady-state slot at
// the paper's control scale — bench/'s control-steady sizing: 1,764
// satellites, a DeltaCompile chain at dt = 30 s, timed after three warm-up
// slots. No slot time recurs, as in every production control loop.
// Measured on the 2-vCPU VM, ten alternating runs of 100 slots: 10.6 ms
// (quartiles 10.0–12.4), 289,359 B and 666 allocs per slot — what the
// slot returns (snapshot, coverage lists, slot geometry) and nothing else.
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
