package flightrec

// Disabled-path benchmarks: the acceptance bar for leaving flight-
// recorder hooks in the MPC compile loop, the per-packet forwarder, and
// the southbound read loop is ≤ 2 ns/op and zero allocations while the
// recorder is off. The guarded-emit benchmarks model the real call-site
// idiom (Enabled() check BEFORE attribute formatting); the unguarded
// ones show why the guard matters.
//
//	go test -bench . -benchmem ./internal/obs/flightrec

import (
	"strconv"
	"testing"

	"repro/internal/obs"
)

func BenchmarkEnabledCheckDisabled(b *testing.B) {
	var l obs.Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if l.Enabled() {
			b.Fatal("tracer should be disabled")
		}
	}
}

// BenchmarkGuardedEmitDisabled is the hot-path contract: call sites
// check Enabled() before building attributes, so the disabled cost is
// one atomic load and zero allocations.
func BenchmarkGuardedEmitDisabled(b *testing.B) {
	var l obs.Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if l.Enabled() {
			l.Emit("dataplane.drop", "sat", strconv.Itoa(i), "reason", "bench")
		}
	}
}

func BenchmarkGuardedEmitDisabledParallel(b *testing.B) {
	var l obs.Tracer
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if l.Enabled() {
				l.Emit("dataplane.drop", "reason", "bench")
			}
		}
	})
}

// BenchmarkDefaultEnabledCheckDisabled measures the package-level
// Enabled() the instrumented subsystems actually call.
func BenchmarkDefaultEnabledCheckDisabled(b *testing.B) {
	if Enabled() {
		b.Skip("process-wide recorder enabled by another test")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Enabled() {
			Emit(CompMPC, "slot_compiled")
		}
	}
}

func BenchmarkEmitEnabled(b *testing.B) {
	var l obs.Tracer
	l.Enable(8192)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Emit("dataplane.drop", "reason", "bench")
	}
}

func BenchmarkEmitEnabledWithFormatting(b *testing.B) {
	var l obs.Tracer
	l.Enable(8192)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Emit("dataplane.drop", "sat", strconv.Itoa(i), "reason", "bench")
	}
}

func BenchmarkRecordSlotEnabled(b *testing.B) {
	var s Snapshotter
	s.enable()
	st := SlotState{Time: 1, Kind: "compile",
		InterLinks: [][2]int{{1, 2}, {3, 4}, {5, 6}},
		RingLinks:  [][2]int{{1, 3}},
		CellSats:   map[int][]int{10: {1, 2}, 20: {3, 4}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.RecordSlot(st)
	}
}
