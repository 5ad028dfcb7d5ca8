package orbit

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geom"
)

// TestWarmLifetimeBitIdentical is the warm walk's core contract: a table
// carried from slot to slot serves τ bit-identical to ISLLifetime, across
// a slot-aligned chain (where run reuse actually fires) and a chain of
// arbitrary random slot times (where the bitwise sample guard must reject
// reuse and fall back to real Visible calls rather than corrupt a result).
func TestWarmLifetimeBitIdentical(t *testing.T) {
	pc := newTestCache(6, 6)
	rng := rand.New(rand.NewSource(7))
	n := pc.NumSats()
	var wt LifeTable
	slot := func(t0 float64, trials int) {
		wt.Reset(pc.Slot(t0), allActive(pc))
		for trial := 0; trial < trials; trial++ {
			i, j := rng.Intn(n), rng.Intn(n)
			got := wt.Lifetime(i, j)
			want := ISLLifetime(pc.sats[i], pc.sats[j], t0, pc.horizon, pc.step, pc.isl)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("pair (%d,%d) t0=%v: warm %v != direct %v", i, j, t0, got, want)
			}
		}
		wt.Flush()
	}
	// Slot-aligned chain: consecutive establishment times one step apart,
	// one table reset per slot — the delta compiler's access pattern.
	for k := 0; k < 8; k++ {
		slot(float64(k)*60, 200)
	}
	aligned := pc.Stats()
	if aligned.WarmSamples == 0 {
		t.Fatal("the walks evaluated no samples")
	}
	if aligned.WarmSkips == 0 {
		t.Error("slot-aligned chain skipped no samples; run reuse never fired")
	}
	if r := aligned.WarmHitRatio(); r < 0 || r > 1 {
		t.Errorf("WarmHitRatio out of range: %v", r)
	}
	// Misaligned times: no sample time recurs bit-exactly, so every sample
	// is a real Visible call and the results must still match.
	for k := 0; k < 25; k++ {
		slot(rng.Float64()*3600, 20)
	}
	if st := pc.Stats(); st.WarmSkips != aligned.WarmSkips {
		t.Errorf("misaligned chain skipped %d samples; its runs match no sample time", st.WarmSkips-aligned.WarmSkips)
	}
	// A table with no previous slot has no run to reuse.
	cold := newTestCache(6, 6)
	for k := 0; k < 3; k++ {
		var ct LifeTable
		ct.Reset(cold.Slot(float64(k)*60), allActive(cold))
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				ct.Lifetime(i, j)
			}
		}
		ct.Flush()
	}
	if cs := cold.Stats(); cs.WarmSamples == 0 || cs.WarmSkips != 0 {
		t.Errorf("single-slot tables reported run reuse: %+v", cs)
	}
}

// TestCoverageMatchesDirect checks SlotGeom.Coverage against the
// straightforward per-satellite central-angle test it replaces, and
// CoverageInto, run slot after slot in one scratch, against Coverage: the
// same lists, nil for an empty cell, each capped at its own length, and
// the previous slot's lists left as they were.
func TestCoverageMatchesDirect(t *testing.T) {
	pc := newTestCache(6, 6)
	centers := []geom.LatLon{
		{Lat: 0, Lon: 0},
		{Lat: geom.Deg2Rad(20), Lon: geom.Deg2Rad(-40)},
		{Lat: geom.Deg2Rad(-35), Lon: geom.Deg2Rad(120)},
	}
	radius, none := make([]float64, pc.NumSats()), make([]float64, pc.NumSats())
	for i, e := range pc.sats {
		radius[i], none[i] = DefaultCoverageParams.FootprintRadius(e.Altitude()), -1
	}
	var scratch [][]int
	var buf []int
	var prev, prevCopy [][]int
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
			if !slices.Equal(cover[ci], want) {
				t.Errorf("t=%v cell %d: Coverage %v != direct %v", tt, ci, cover[ci], want)
			}
		}
		if empty := g.Coverage(centers, none); !reflect.DeepEqual(empty, make([][]int, len(centers))) {
			t.Errorf("t=%v: coverage by no footprint is %#v, want nil lists", tt, empty)
		}
		scratch, buf = g.CoverageInto(scratch, buf, centers, radius)
		if !reflect.DeepEqual(scratch, cover) {
			t.Errorf("t=%v: CoverageInto %v != Coverage %v", tt, scratch, cover)
		}
		for ci, list := range scratch {
			if cap(list) != len(list) {
				t.Errorf("t=%v cell %d: list of length %d has capacity %d", tt, ci, len(list), cap(list))
			}
		}
		if !reflect.DeepEqual(prev, prevCopy) {
			t.Errorf("t=%v: the previous slot's lists changed: %v, were %v", tt, prev, prevCopy)
		}
		prev, prevCopy = nil, nil
		for _, list := range scratch {
			prev = append(prev, list)
			prevCopy = append(prevCopy, slices.Clone(list))
		}
	}
}
