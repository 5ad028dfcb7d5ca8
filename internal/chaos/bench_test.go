package chaos

import (
	"testing"

	"repro/internal/mpc"
)

// BenchmarkDeltaCompileSteady measures the operator's steady-state slot at
// the paper's control scale — bench/'s control-steady sizing: 1,764
// satellites, a DeltaCompile chain at dt = 30 s, timed after three warm-up
// slots. No slot time recurs, as in every production control loop.
// Measured on a 2-vCPU VM, ten runs of 100 slots: 10.9 ms (quartiles
// 10.5–11.3). ~59,800 B and 18 allocs per slot — the snapshot, built at
// its final size, and nothing else: the chain refills the slot geometry it
// evicted two slots earlier. While the snapshot's maps grew from empty and
// its gateway and link lists by append it was 80,533 B and 229 allocs, at
// the same time per slot (three alternated pairs of 50 slots: 9.5–13.4 ms
// before, 10.8–12.7 ms after, on a noisy host).
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

// BenchmarkDeltaCompileChurn measures bench/'s enforce-churn set-up chain:
// one operation is a new controller on the 529-satellite testbed compiling
// 100 slots at dt = 300 s by DeltaCompile, from the testbed's slot-0
// snapshot. Five lifetime steps apart, slots take only 0.36 of their
// visibility samples from the previous slot's runs, so the chain is
// mostly the cold compile's work: coverage, propagation, the τ walks and
// stage 1's sums. Measured on a 2-vCPU VM, ten runs of 10 chains: 63.2 ms
// (quartiles 61.1–65.9). 1.05 MB and 1,925 allocs per chain; 1.64 MB and
// 8,191 while every snapshot's maps and lists grew by append, at the same
// time per chain (three alternated pairs of 1 s: 76.1–76.7 ms before,
// 69.8–74.8 ms after, on a noisy host).
func BenchmarkDeltaCompileChurn(b *testing.B) {
	const (
		slots = 100
		dt    = 300.0
	)
	tb, err := NewTestbed(TestbedConfig{Sats: 529})
	if err != nil {
		b.Fatal(err)
	}
	cfg := tb.Ctl.Config()
	b.ReportAllocs()
	b.ResetTimer()
	// A b.N loop, not b.Loop: under go1.24, stopping and restarting the
	// timer inside b.Loop keeps a time-based -benchtime from ever ending.
	for range b.N {
		b.StopTimer()
		ctl, err := mpc.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		snap := tb.Snap
		for slot := 1; slot <= slots; slot++ {
			snap = ctl.DeltaCompile(snap, float64(slot)*dt)
		}
	}
}

// BenchmarkDeltaCompileColdChain measures a chain's start, loop-plan's
// control sizing on the 529-satellite testbed: one operation is a new
// controller compiling DeltaCompile(nil, 0) and 7 slots at dt = 30 s, the
// first cold but in the chain's own memory, so slot 1 is warm and the
// chain's tables are sized once. Measured on a 2-vCPU VM, three runs of
// 1 s: 6.6–7.2 ms, and 227 KB and 255 allocs per chain (6.9–7.0 ms, 380 KB
// and 801 allocs while the cold slot compiled in a throwaway scratch).
func BenchmarkDeltaCompileColdChain(b *testing.B) {
	tb, err := NewTestbed(TestbedConfig{Sats: 529})
	if err != nil {
		b.Fatal(err)
	}
	cfg := tb.Ctl.Config()
	b.ReportAllocs()
	b.ResetTimer()
	// A b.N loop, as in BenchmarkDeltaCompileChurn.
	for range b.N {
		b.StopTimer()
		ctl, err := mpc.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		coldChain(ctl)
	}
}
