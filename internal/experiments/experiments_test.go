package experiments

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/chaos"
	"repro/internal/dataplane"
	"repro/internal/metrics"
	"repro/internal/texture"
)

// Shared fixtures: the Small-scale library and sparsification outcomes are
// expensive enough to build once per test binary.
var (
	libOnce sync.Once
	libVal  *texture.Library
	libErr  error

	outsOnce sync.Once
	outsVal  []*SparsifyOutcome
	outsErr  error
)

func smallLib(t *testing.T) *texture.Library {
	t.Helper()
	libOnce.Do(func() { libVal, libErr = Small.BuildLibrary() })
	if libErr != nil {
		t.Fatal(libErr)
	}
	return libVal
}

func smallOuts(t *testing.T) []*SparsifyOutcome {
	t.Helper()
	lib := smallLib(t)
	outsOnce.Do(func() { outsVal, outsErr = RunSparsification(Small, lib) })
	if outsErr != nil {
		t.Fatal(outsErr)
	}
	return outsVal
}

func renderAll(t *testing.T, tabs ...*metrics.Table) string {
	t.Helper()
	var sb strings.Builder
	for _, tab := range tabs {
		if tab == nil {
			t.Fatal("nil table")
		}
		tab.Render(&sb)
	}
	out := sb.String()
	t.Log("\n" + out)
	return out
}

// The figures' system under test is chaos's testbed at exactly this
// config; internal/chaos TestTestbedIsPinned pins what it builds to the
// digest of what this package's own newDataPlaneTestbed(Small) built before
// the two were one. NetworkFromSnapshot, which bench/'s loop-plan calls, is
// the same builder with the same link defaults.
func TestFigureTestbedIsThePinnedOne(t *testing.T) {
	tb, err := newTestbed(Small)
	if err != nil {
		t.Fatal(err)
	}
	want := chaos.TestbedConfig{
		Sats: 256, CellDeg: 10, Slots: 8, SlotSeconds: 300,
		ISLRateBps: dataplane.ISLRateBpsDefault, QueueLimit: 4096,
	}
	if tb.Cfg != want {
		t.Fatalf("figure testbed config %+v, pinned %+v", tb.Cfg, want)
	}
	n := NetworkFromSnapshot(tb.Snap, tb.Sats)
	if len(n.Sats) != len(tb.Net.Sats) || len(n.Links()) != len(tb.Net.Links()) {
		t.Fatalf("NetworkFromSnapshot built %d satellites and %d links, the testbed %d and %d",
			len(n.Sats), len(n.Links()), len(tb.Net.Sats), len(tb.Net.Links()))
	}
	for id, s := range tb.Net.Sats {
		if got := n.Sats[id]; got == nil || got.Cell != s.Cell || got.RingNext != s.RingNext {
			t.Fatalf("satellite %d: NetworkFromSnapshot built %+v, the testbed cell %d ring %d", id, got, s.Cell, s.RingNext)
		}
	}
	for i, l := range tb.Net.Links() {
		if got := n.Links()[i]; got.A != l.A || got.B != l.B || got.Delay != l.Delay ||
			got.RateBps != l.RateBps || got.QueueLimit != l.QueueLimit {
			t.Fatalf("link %d: NetworkFromSnapshot built %d-%d, the testbed %d-%d (or delay, rate or queue differ)",
				i, got.A, got.B, l.A, l.B)
		}
	}
}

func TestScaleByName(t *testing.T) {
	if s, ok := ScaleByName("small"); !ok || s.Name != "small" {
		t.Error("small scale missing")
	}
	if s, ok := ScaleByName(""); !ok || s.Name != "small" {
		t.Error("default scale missing")
	}
	if s, ok := ScaleByName("paper"); !ok || s.Name != "paper" {
		t.Error("paper scale missing")
	}
	if _, ok := ScaleByName("bogus"); ok {
		t.Error("bogus scale resolved")
	}
}

func TestTable1(t *testing.T) {
	tab := Table1(smallLib(t))
	out := renderAll(t, tab)
	if !strings.Contains(out, "total candidate tracks") {
		t.Error("missing track count row")
	}
	if tab.NumRows() < 5 {
		t.Errorf("rows = %d", tab.NumRows())
	}
}

func TestFigure3(t *testing.T) {
	tabs := Figure3(Small)
	out := renderAll(t, tabs...)
	if !strings.Contains(out, "70%") {
		t.Error("missing concentration stats")
	}
}

func TestFigure4(t *testing.T) {
	tabs := Figure4(Small)
	out := renderAll(t, tabs...)
	if !strings.Contains(out, "waste") {
		t.Error("missing waste stats")
	}
}

func TestFigure9(t *testing.T) {
	outs := smallOuts(t)
	tiny := RealizeConstellation(outs[0].Lib, outs[0].TinyLEO)
	uniform := baseline.WalkerConfig{
		InclinationDeg: 53, AltitudeKm: 550,
		Planes: isqrt(len(tiny)), SatsPerPlane: isqrt(len(tiny)), PhasingF: 1,
	}.Satellites()
	tabs := Figure9(Small, tiny, uniform)
	renderAll(t, tabs...)
	if tabs[0].NumRows() != Small.ControlSlots {
		t.Errorf("fig9a rows = %d", tabs[0].NumRows())
	}
	if tabs[1].NumRows() != Small.ControlSlots-1 {
		t.Errorf("fig9b rows = %d", tabs[1].NumRows())
	}
}

func isqrt(n int) int {
	i := 1
	for i*i < n {
		i++
	}
	return i
}

func TestRunSparsificationShapes(t *testing.T) {
	outs := smallOuts(t)
	if len(outs) != 3 {
		t.Fatalf("scenarios = %d", len(outs))
	}
	for _, o := range outs {
		if o.TinyLEO.Satellites == 0 {
			t.Errorf("%s: empty TinyLEO constellation", o.Scenario)
		}
		if o.TinyLEO.Availability < Small.Epsilon-1e-9 {
			t.Errorf("%s: availability %v below ε", o.Scenario, o.TinyLEO.Availability)
		}
		// Headline result: TinyLEO compresses the mega-constellation.
		if o.TinyLEO.Satellites >= len(o.Starlink) {
			t.Errorf("%s: TinyLEO (%d) did not compress vs Starlink-like (%d)",
				o.Scenario, o.TinyLEO.Satellites, len(o.Starlink))
		}
		// Relaxed availability needs no more satellites.
		if o.TinyLEORelaxed.Satellites > o.TinyLEO.Satellites {
			t.Errorf("%s: relaxed ε used more satellites", o.Scenario)
		}
		// MegaReduce stays uniform, so it cannot beat TinyLEO here.
		if o.MegaReduce != nil && o.MegaReduce.Satellites < o.TinyLEO.Satellites {
			t.Errorf("%s: MegaReduce (%d) beat TinyLEO (%d) on uneven demand",
				o.Scenario, o.MegaReduce.Satellites, o.TinyLEO.Satellites)
		}
	}
	// Regional demand compresses hardest (paper: 6.4x vs 2.0-3.9x).
	var regional, backbone *SparsifyOutcome
	for _, o := range outs {
		switch o.Scenario {
		case "latin-america":
			regional = o
		case "internet-backbone":
			backbone = o
		}
	}
	if regional == nil || backbone == nil {
		t.Fatal("scenario names changed")
	}
	cr := func(o *SparsifyOutcome) float64 {
		return float64(len(o.Starlink)) / float64(o.TinyLEO.Satellites)
	}
	if cr(regional) <= cr(backbone) {
		t.Errorf("regional compression (%.1fx) should exceed backbone (%.1fx)",
			cr(regional), cr(backbone))
	}
}

func TestFigure13_14_15Tables(t *testing.T) {
	outs := smallOuts(t)
	out := renderAll(t, Figure13(outs), Figure14(outs), Figure15a(outs), Figure15b(outs), Figure15c(outs))
	for _, want := range []string{"Figure 13", "Figure 14", "Figure 15a", "Figure 15b", "Figure 15c", "starlink-customers", "compression"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestFigure15d(t *testing.T) {
	tab, err := Figure15d(Small, smallLib(t))
	if err != nil {
		t.Fatal(err)
	}
	out := renderAll(t, tab)
	if !strings.Contains(out, "diurnal") {
		t.Error("missing diurnal rows")
	}
	if tab.NumRows() != 4 {
		t.Errorf("rows = %d", tab.NumRows())
	}
}

func TestFigure15e(t *testing.T) {
	outs := smallOuts(t)
	tabs := Figure15e(outs)
	out := renderAll(t, tabs...)
	if !strings.Contains(out, "inclination β") {
		t.Error("missing importance columns")
	}
}

func TestFigure16(t *testing.T) {
	tabs, snaps, err := Figure16(Small)
	if err != nil {
		t.Fatal(err)
	}
	renderAll(t, tabs...)
	if len(snaps) != Small.ControlSlots {
		t.Errorf("snapshots = %d", len(snaps))
	}
	added, removed := ISLChurnSummary(snaps)
	if added+removed == 0 {
		t.Error("topology never changed across slots; LEO dynamics missing")
	}
}

func TestFigure17(t *testing.T) {
	tabs, err := Figure17(Small)
	if err != nil {
		t.Fatal(err)
	}
	out := renderAll(t, tabs...)
	if !strings.Contains(out, "TS-SDN") || !strings.Contains(out, "TinyLEO bytes") {
		t.Error("missing TS-SDN rows or TinyLEO's framed bytes")
	}
}

func TestFigure17d(t *testing.T) {
	tab, err := Figure17d(Small, 20)
	if err != nil {
		t.Fatal(err)
	}
	out := renderAll(t, tab)
	if !strings.Contains(out, "total") {
		t.Error("missing total row")
	}
}

func TestFigure18(t *testing.T) {
	tab, err := Figure18(Small)
	if err != nil {
		t.Fatal(err)
	}
	out := renderAll(t, tab)
	for _, policy := range []string{"shortest path", "oceanic offloading", "multipath", "risk detour"} {
		if !strings.Contains(out, policy) {
			t.Errorf("missing the %s policy's row", policy)
		}
	}
	if strings.Contains(out, "false") {
		t.Error("some policy route failed to deliver")
	}
}

func TestFigure19a(t *testing.T) {
	outs := smallOuts(t)
	var backbone *SparsifyOutcome
	for _, o := range outs {
		if o.Scenario == "internet-backbone" {
			backbone = o
		}
	}
	tab, err := Figure19a(Small, backbone)
	if err != nil {
		t.Fatal(err)
	}
	out := renderAll(t, tab)
	if !strings.Contains(out, "stretch p90") {
		t.Error("missing stretch stats")
	}
}

func TestFigure19bcd(t *testing.T) {
	tabs, err := Figure19bcd(Small)
	if err != nil {
		t.Fatal(err)
	}
	out := renderAll(t, tabs...)
	for _, want := range []string{"RTT", "utilization", "reroute"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q section", want)
		}
	}
}
