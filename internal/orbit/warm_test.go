package orbit

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestWarmLifetimeBitIdentical is the warm path's core contract: with
// visibility-run reuse enabled, every τ is bit-identical to a cold
// cache's, across slot-aligned chains of slot tables (where reuse
// actually fires) and arbitrary random times (where the bitwise sample
// guard must reject reuse rather than corrupt a result).
func TestWarmLifetimeBitIdentical(t *testing.T) {
	warm := newTestCache(6, 6)
	warm.EnableWarmLifetimes()
	cold := newTestCache(6, 6)
	rng := rand.New(rand.NewSource(7))
	n := warm.NumSats()
	// Slot-aligned chain: consecutive establishment times one step
	// apart, one table reset per slot — the delta compiler's access
	// pattern.
	var wt, ct LifeTable
	for slot := 0; slot < 8; slot++ {
		t0 := float64(slot) * 60
		wt.Reset(warm.Slot(t0), allActive(warm))
		ct.Reset(cold.Slot(t0), allActive(cold))
		for trial := 0; trial < 200; trial++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			got := wt.Lifetime(i, j)
			want := ct.Lifetime(i, j)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("pair (%d,%d) t0=%v: warm %v != cold %v", i, j, t0, got, want)
			}
		}
	}
	// Misaligned times: reuse cannot fire bit-exactly, results must
	// still match.
	for trial := 0; trial < 500; trial++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		t0 := rng.Float64() * 3600
		got := warm.Lifetime(i, j, t0)
		want := cold.Lifetime(i, j, t0)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("pair (%d,%d) t0=%v: warm %v != cold %v", i, j, t0, got, want)
		}
	}
	st := warm.Stats()
	if st.WarmSamples == 0 {
		t.Fatal("warm path evaluated no samples")
	}
	if st.WarmSkips == 0 {
		t.Error("slot-aligned chain skipped no samples; warm reuse never fired")
	}
	if r := st.WarmHitRatio(); r < 0 || r > 1 {
		t.Errorf("WarmHitRatio out of range: %v", r)
	}
	if cs := cold.Stats(); cs.WarmSamples != 0 || cs.WarmSkips != 0 {
		t.Errorf("cold cache reported warm work: %+v", cs)
	}
}

// TestCoverageMatchesDirect checks SlotGeom.Coverage against the
// straightforward per-satellite central-angle test it replaces.
func TestCoverageMatchesDirect(t *testing.T) {
	pc := newTestCache(6, 6)
	centers := []geom.LatLon{
		{Lat: 0, Lon: 0},
		{Lat: geom.Deg2Rad(20), Lon: geom.Deg2Rad(-40)},
		{Lat: geom.Deg2Rad(-35), Lon: geom.Deg2Rad(120)},
	}
	radius := make([]float64, pc.NumSats())
	for i, e := range pc.sats {
		radius[i] = DefaultCoverageParams.FootprintRadius(e.Altitude())
	}
	for _, tt := range []float64{0, 300, 3600} {
		g := pc.Slot(tt)
		cover := g.Coverage(centers, radius)
		for ci, c := range centers {
			var want []int
			for si := 0; si < pc.NumSats(); si++ {
				if geom.CentralAngle(g.SubPoint(si), c) <= radius[si] {
					want = append(want, si)
				}
			}
			if !intsEqual(cover[ci], want) {
				t.Errorf("t=%v cell %d: Coverage %v != direct %v", tt, ci, cover[ci], want)
			}
		}
	}
}

// TestChangedCells covers the diff used for changed-cell telemetry.
func TestChangedCells(t *testing.T) {
	prev := [][]int{{1, 2}, {3}, nil, {7}}
	cur := [][]int{{1, 2}, {3, 4}, nil, nil, {9}}
	got := ChangedCells(prev, cur)
	want := []int{1, 3, 4}
	if !intsEqual(got, want) {
		t.Errorf("ChangedCells = %v, want %v", got, want)
	}
	if ch := ChangedCells(nil, [][]int{nil, {1}}); !intsEqual(ch, []int{1}) {
		t.Errorf("nil prev: %v", ch)
	}
	if ch := ChangedCells(cur, cur); ch != nil {
		t.Errorf("identical coverage reported changes: %v", ch)
	}
}
