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
		wt.Reset(pc.Slot(t0), allActive(pc), true)
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
		ct.Reset(cold.Slot(float64(k)*60), allActive(cold), true)
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
	cosRadius := make([]float64, pc.NumSats())
	for i, e := range pc.sats {
		radius[i], none[i] = DefaultCoverageParams.FootprintRadius(e.Altitude()), -1
		cosRadius[i] = math.Cos(radius[i])
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
		scratch, buf = g.CoverageInto(scratch, buf, centers, radius, cosRadius)
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

// coverGeom is a slot geometry whose sub-satellite points are those of the
// given ECEF positions, derived as fillSlot derives them.
func coverGeom(ecef []geom.Vec3) *SlotGeom {
	pc := NewPropCache(make([]Elements, len(ecef)), ISLParams{}, 60, 30)
	g := pc.newSlot()
	for i, e := range ecef {
		g.setSub(i, e)
	}
	return g
}

// pointAt returns the point at central angle a from p, along the bearing
// that rotating p's unit vector towards w gives.
func pointAt(p geom.LatLon, w geom.Vec3, a float64) geom.LatLon {
	v := p.ToUnit()
	w = w.Sub(v.Scale(w.Dot(v))).Unit()
	return geom.FromUnit(v.Scale(math.Cos(a)).Add(w.Scale(math.Sin(a))))
}

// TestCoverageThresholdMatchesAngle: CoverageInto's cosine threshold, with
// its exact fallback, decides every satellite–centre pair as
// CentralAngle(sub, centre) ≤ radius does — on random pairs, and on pairs
// built at the footprint's edge (radius ± a few ulp, ± 1e-10 and ± 1e-8
// rad), at the
// sub-point itself and at its antipode, for radii below 0, 0, near π and
// from π on, with sub-points at and within a metre of the poles, where the
// normalised ECEF vector and the sub-point's unit vector differ most.
func TestCoverageThresholdMatchesAngle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := geom.EarthRadius + 1200e3
	// 0.14 m from the polar axis, the round trip through latitude moves the
	// unit vector by ~1.8e-8.
	sats := []struct {
		ecef   geom.Vec3
		radius float64
	}{
		{geom.Vec3{Z: r}, math.Pi / 2},
		{geom.Vec3{Z: -r}, 0.35},
		{geom.Vec3{X: 0.14, Z: r}, math.Pi / 2},
		{geom.Vec3{Y: -0.14, Z: -r}, 1},
		{geom.Vec3{X: 0.1, Y: -0.1, Z: r}, 0.35},
		{geom.Vec3{X: r}, -1},
		{geom.Vec3{Y: -r}, -1e-300},
		{geom.Vec3{X: -r}, 0},
		{geom.Vec3{Y: r}, 1e-12},
		{geom.Vec3{X: r, Z: r}, math.Pi - 1e-12},
		{geom.Vec3{X: -r, Z: -r}, math.Pi},
		{geom.Vec3{Y: r, Z: -r}, 4},
	}
	for range 24 {
		e := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Scale(r)
		sats = append(sats, struct {
			ecef   geom.Vec3
			radius float64
		}{e, rng.Float64() * math.Pi})
	}
	ecef := make([]geom.Vec3, len(sats))
	radius, cosRadius := make([]float64, len(sats)), make([]float64, len(sats))
	for s, sat := range sats {
		ecef[s], radius[s], cosRadius[s] = sat.ecef, sat.radius, math.Cos(sat.radius)
	}
	g := coverGeom(ecef)
	check := func(what string, centers []geom.LatLon) (exact uint64) {
		t.Helper()
		before := g.cache.Stats().CoverExact
		cover, _ := g.CoverageInto(nil, nil, centers, radius, cosRadius)
		for ci, c := range centers {
			in := make([]bool, len(ecef))
			for _, s := range cover[ci] {
				in[s] = true
			}
			for s := range ecef {
				if want := geom.CentralAngle(g.SubPoint(s), c) <= radius[s]; in[s] != want {
					t.Errorf("%s: sat %d (radius %v), centre %v: covered %v, exact angle says %v",
						what, s, radius[s], c, in[s], want)
				}
			}
		}
		return g.cache.Stats().CoverExact - before
	}

	random := make([]geom.LatLon, 500)
	for i := range random {
		random[i] = geom.FromUnit(geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()})
	}
	if exact := check("random", random); exact != 0 {
		t.Errorf("random pairs: %d decided by the exact angle, want none", exact)
	}

	var edge []geom.LatLon
	for s := range ecef {
		sub := g.SubPoint(s)
		edge = append(edge, sub, geom.LatLon{Lat: -sub.Lat, Lon: geom.NormalizeLon(sub.Lon + 180)})
		rs := radius[s]
		if rs < 0 || rs > math.Pi {
			continue
		}
		bearings := []geom.Vec3{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}, {X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}}
		for _, w := range bearings {
			for _, a := range []float64{
				rs, math.Nextafter(rs, 0), math.Nextafter(rs, 4), rs - 3e-16*rs, rs + 3e-16*rs,
				rs - 1e-10, rs + 1e-10, rs - 1e-8, rs + 1e-8,
			} {
				if a >= 0 && a <= math.Pi {
					edge = append(edge, pointAt(sub, w, a))
				}
			}
		}
	}
	if exact := check("edge", edge); exact == 0 {
		t.Error("no edge pair reached the exact angle: the band is not exercised")
	}
}
