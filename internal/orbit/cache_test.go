package orbit

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
)

// cacheTestConstellation builds a small Walker-like shell directly from
// Elements (the baseline package depends on orbit, so tests here cannot
// use its generator).
func cacheTestConstellation(planes, perPlane int) []Elements {
	sats := make([]Elements, 0, planes*perPlane)
	for p := 0; p < planes; p++ {
		for s := 0; s < perPlane; s++ {
			sats = append(sats, Elements{
				SemiMajor:   geom.EarthRadius + 1200e3,
				Inclination: geom.Deg2Rad(53),
				RAAN:        2 * math.Pi * float64(p) / float64(planes),
				Phase:       2*math.Pi*float64(s)/float64(perPlane) + math.Pi*float64(p)/float64(planes*perPlane),
			})
		}
	}
	return sats
}

func newTestCache(planes, perPlane int) *PropCache {
	return NewPropCache(cacheTestConstellation(planes, perPlane), DefaultISLParams, 1800, 60)
}

// TestPropCachePositionsMatchDirect is the position table's core contract:
// every position a slot table serves — propagated on first use with the
// cache's precomputed mean motion and rotations, or served back from the
// table — equals Elements.PositionECI at the slot time plus the sample
// offset, bit for bit, at every sample of the window, for orbits at the
// edges of the rotations' domains and slot times from epoch to 1e9 s.
func TestPropCachePositionsMatchDirect(t *testing.T) {
	pc := NewPropCache(trigTestSats(), DefaultISLParams, 1800, 60)
	rng := rand.New(rand.NewSource(42))
	slots := []float64{0, 86164.0905, 1e7 + 0.5, 1e9}
	for range 20 {
		slots = append(slots, rng.Float64()*86400)
	}
	var lt LifeTable
	for _, t0 := range slots {
		lt.Reset(pc.Slot(t0), allActive(pc), true)
		for m := range pc.offs {
			for i := range pc.sats {
				want := pc.sats[i].PositionECI(t0 + pc.offs[m])
				for rep := 0; rep < 2; rep++ {
					if got := lt.position(m, int(lt.local[i]), i); !sameVec(got, want) {
						t.Fatalf("sat %d t0=%v sample %d: table %v != direct %v", i, t0, m, got, want)
					}
				}
			}
		}
		lt.Flush()
	}
	st := pc.Stats()
	if st.PosHits == 0 || st.PosMisses == 0 {
		t.Errorf("expected both hits and misses, got %+v", st)
	}
}

// trigTestSats are orbits at the edges of the rotations' domains: equatorial
// prograde and retrograde (inclination 0 and π), polar, RAAN 0 and near 2π,
// negative and large phases, and the testbed's 53° shell.
func trigTestSats() []Elements {
	a := geom.EarthRadius + 1200e3
	sats := []Elements{
		{SemiMajor: a},
		{SemiMajor: a, Inclination: math.Pi},
		{SemiMajor: a, Inclination: math.Pi / 2, RAAN: 0, Phase: -1},
		{SemiMajor: a + 800e3, Inclination: math.Pi / 2, RAAN: 2*math.Pi - 1e-9, Phase: 1e6},
		{SemiMajor: geom.EarthRadius + 550e3, Inclination: geom.Deg2Rad(97.6), RAAN: 3, Phase: 2},
	}
	return append(sats, cacheTestConstellation(3, 4)...)
}

// sameVec reports whether a and b are equal bit for bit, signed zeros
// included.
func sameVec(a, b geom.Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

// allActive is a coverage list naming every satellite of pc, which makes
// every pair a LifeTable entry.
func allActive(pc *PropCache) [][]int {
	all := make([]int, pc.NumSats())
	for i := range all {
		all[i] = i
	}
	return [][]int{all}
}

// TestPropCacheLifetimeMatchesDirect: a slot table's pair lifetime equals
// ISLLifetime bit for bit (same stepping loop, memoized positions), in
// either argument order and for a satellite paired with itself, and a
// repeated lookup is served from the table.
func TestPropCacheLifetimeMatchesDirect(t *testing.T) {
	pc := newTestCache(5, 5)
	rng := rand.New(rand.NewSource(7))
	var lt LifeTable
	var lookups, computed uint64
	for slot := 0; slot < 20; slot++ {
		t0 := float64(slot) * 150
		lt.Reset(pc.Slot(t0), allActive(pc), true)
		seen := map[[2]int]bool{}
		for trial := 0; trial < 40; trial++ {
			i, j := rng.Intn(pc.NumSats()), rng.Intn(pc.NumSats())
			got := lt.Lifetime(i, j)
			want := ISLLifetime(pc.sats[i], pc.sats[j], t0, pc.horizon, pc.step, pc.isl)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("pair (%d,%d) t0=%v: table %v != direct %v", i, j, t0, got, want)
			}
			if sym := lt.Lifetime(j, i); math.Float64bits(sym) != math.Float64bits(got) {
				t.Fatalf("pair (%d,%d): asymmetric lifetimes %v vs %v", i, j, got, sym)
			}
			lookups += 2
			if k := [2]int{min(i, j), max(i, j)}; !seen[k] {
				seen[k] = true
				computed++
			}
		}
		lt.Flush()
	}
	// Every distinct pair of a slot is computed or pruned exactly once;
	// every other lookup is a hit.
	st := pc.Stats()
	if st.LifeHits != lookups-computed {
		t.Errorf("LifeHits %d, want %d lookups - %d distinct pairs", st.LifeHits, lookups, computed)
	}
	if st.LifeMisses+st.PrunedPairs != computed {
		t.Errorf("computed %d + pruned %d, want %d distinct pairs", st.LifeMisses, st.PrunedPairs, computed)
	}
}

// TestLifeTableOutsideActiveSet: a satellite no coverage list names has no
// table entry; a pair with one is computed directly — same τ, never an
// index out of range — and a table reused for a slot with another active
// set serves that slot's τ, none of the previous one's. MeanLifetime,
// filling the table first, is the mean of the direct τ summed in the
// list's order, bit for bit, whichever side is outside the active set.
func TestLifeTableOutsideActiveSet(t *testing.T) {
	pc := newTestCache(5, 5)
	n := pc.NumSats()
	all := allActive(pc)[0]
	var lt LifeTable
	for slot, cover := range [][][]int{{{0, 1, 2}, {2, 7}}, {{3}}, nil, {{n - 1, 0, 12}}} {
		t0 := float64(slot) * 60
		lt.Reset(pc.Slot(t0), cover, true)
		for i := 0; i < n; i++ {
			for _, js := range [][]int{all, {7, 2, 0, 2}, {n - 1, 3}} {
				sum := 0.0
				for _, j := range js {
					sum += ISLLifetime(pc.sats[min(i, j)], pc.sats[max(i, j)], t0, pc.horizon, pc.step, pc.isl)
				}
				if got, want := lt.MeanLifetime(i, js), sum/float64(len(js)); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("slot %d: mean τ of %d over %v: table %v != direct %v", slot, i, js, got, want)
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := ISLLifetime(pc.sats[i], pc.sats[j], t0, pc.horizon, pc.step, pc.isl)
				for rep := 0; rep < 2; rep++ {
					if got := lt.Lifetime(i, j); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("slot %d pair (%d,%d): table %v != direct %v", slot, i, j, got, want)
					}
				}
			}
		}
	}
}

// TestSlotGeomMatchesDirect: slot geometry reproduces the direct
// per-satellite propagation and ground-track math bit for bit, with the
// Earth rotation's sine and cosine taken once per slot.
func TestSlotGeomMatchesDirect(t *testing.T) {
	pc := NewPropCache(trigTestSats(), DefaultISLParams, 1800, 60)
	for _, tt := range []float64{0, 97, 300, 5400.5, 1e7 + 0.5, 1e9} {
		sg := pc.Slot(tt)
		if sg.Time != tt {
			t.Fatalf("slot time %v != %v", sg.Time, tt)
		}
		checkSlotGeom(t, pc, sg, tt)
		if again := pc.Slot(tt); again != sg {
			t.Fatalf("t=%v: slot geometry not memoized", tt)
		}
	}
}

// TestSlotGeomInRangeConservative: the spatial grid may only reject
// pairs that are truly out of ISL range — a visible pair must never be
// pruned, and every rejected pair must have zero lifetime.
func TestSlotGeomInRangeConservative(t *testing.T) {
	pc := newTestCache(6, 6)
	sg := pc.Slot(0)
	pruned, kept := 0, 0
	rejected := map[[2]int]bool{}
	for i := 0; i < pc.NumSats(); i++ {
		for j := i + 1; j < pc.NumSats(); j++ {
			in := sg.InRange(i, j)
			vis := pc.isl.Visible(sg.Position(i), sg.Position(j))
			if vis && !in {
				t.Fatalf("pair (%d,%d) visible but pruned", i, j)
			}
			if !in {
				pruned++
				rejected[[2]int{i, j}] = true
				if tau := pc.Lifetime(i, j, 0); tau != 0 {
					t.Fatalf("pruned pair (%d,%d) has lifetime %v", i, j, tau)
				}
			} else {
				kept++
			}
		}
	}
	if pruned == 0 {
		t.Error("grid pruned nothing on a full shell; expected out-of-range pairs")
	}
	if kept == 0 {
		t.Error("grid kept nothing; expected in-range pairs")
	}
	if st := pc.Stats(); st.PrunedPairs != uint64(pruned) {
		t.Errorf("pruned counter %d != observed %d", st.PrunedPairs, pruned)
	}
	// A slot table asks the grid once per pair, however often the pair is
	// looked up: the counter moves by the rejected pairs, not the lookups.
	var lt LifeTable
	lt.Reset(sg, allActive(pc), true)
	for rep := 0; rep < 3; rep++ {
		for i := 0; i < pc.NumSats(); i++ {
			for j := i + 1; j < pc.NumSats(); j++ {
				if tau := lt.Lifetime(i, j); rejected[[2]int{i, j}] && tau != 0 {
					t.Fatalf("pruned pair (%d,%d) has table lifetime %v", i, j, tau)
				}
			}
		}
	}
	lt.Flush()
	if st := pc.Stats(); st.PrunedPairs != 2*uint64(pruned) {
		t.Errorf("pruned counter %d after the table pass, want %d", st.PrunedPairs, 2*pruned)
	}
}

// TestSlotGeomUnlimitedRange: with MaxRange 0 the grid must keep every
// pair (no basis to prune).
func TestSlotGeomUnlimitedRange(t *testing.T) {
	sats := cacheTestConstellation(3, 3)
	pc := NewPropCache(sats, ISLParams{GrazingMargin: 80e3}, 1800, 60)
	sg := pc.Slot(0)
	for i := range sats {
		for j := range sats {
			if !sg.InRange(i, j) {
				t.Fatalf("pair (%d,%d) pruned under unlimited range", i, j)
			}
		}
	}
}

// TestPropCacheConcurrent hammers the cache from many goroutines, each
// with a slot table of its own as concurrent compiles have (run under
// -race in CI), and checks every answer against direct propagation.
func TestPropCacheConcurrent(t *testing.T) {
	pc := newTestCache(5, 5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var lt LifeTable
			for trial := 0; trial < 300; trial++ {
				i, j := rng.Intn(pc.NumSats()), rng.Intn(pc.NumSats())
				tt := float64(rng.Intn(10)) * 97
				sg := pc.Slot(tt)
				if got, want := sg.Position(i), pc.sats[i].PositionECI(tt); got != want {
					t.Errorf("concurrent position mismatch sat %d t=%v", i, tt)
					return
				}
				if i != j {
					want := ISLLifetime(pc.sats[i], pc.sats[j], tt, pc.horizon, pc.step, pc.isl)
					lt.Reset(sg, [][]int{{i, j}}, true)
					if got := pc.Lifetime(i, j, tt); got != want {
						t.Errorf("concurrent lifetime mismatch (%d,%d) t=%v", i, j, tt)
						return
					}
					if got := lt.Lifetime(i, j); got != want {
						t.Errorf("concurrent table lifetime mismatch (%d,%d) t=%v", i, j, tt)
						return
					}
					lt.Flush()
				}
				if sg.SubPoint(i) != pc.sats[i].SubSatellitePoint(tt) {
					t.Errorf("concurrent subpoint mismatch sat %d t=%v", i, tt)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestDropSlotsBefore evicts old slot geometries and keeps newer ones.
func TestDropSlotsBefore(t *testing.T) {
	pc := newTestCache(3, 3)
	old := pc.Slot(0)
	kept := pc.Slot(600)
	pc.DropSlotsBefore(300)
	if n := pc.NumSlots(); n != 1 {
		t.Errorf("%d slots retained after eviction, want 1", n)
	}
	if pc.Slot(600) != kept {
		t.Error("slot at t=600 should have survived eviction")
	}
	if pc.Slot(0) == old {
		t.Error("slot at t=0 should have been evicted and rebuilt")
	}
}

// TestCacheStatsHitRatio covers the ratio arithmetic and its zero guard.
func TestCacheStatsHitRatio(t *testing.T) {
	if r := (CacheStats{}).HitRatio(); r != 0 {
		t.Errorf("empty stats ratio = %v", r)
	}
	s := CacheStats{PosHits: 3, PosMisses: 1, LifeHits: 2, LifeMisses: 2}
	if r := s.HitRatio(); math.Abs(r-5.0/8.0) > 1e-15 {
		t.Errorf("ratio = %v, want 0.625", r)
	}
}

// checkSlotGeom fails the test unless every position and sub-satellite
// point of g equals direct propagation at time tt, bit for bit.
func checkSlotGeom(t *testing.T, pc *PropCache, g *SlotGeom, tt float64) {
	t.Helper()
	for i := range pc.sats {
		if got, want := g.Position(i), pc.sats[i].PositionECI(tt); !sameVec(got, want) {
			t.Fatalf("t=%v sat %d: position %v != %v", tt, i, got, want)
		}
		got, want := g.SubPoint(i), pc.sats[i].SubSatellitePoint(tt)
		if math.Float64bits(got.Lat) != math.Float64bits(want.Lat) || math.Float64bits(got.Lon) != math.Float64bits(want.Lon) {
			t.Fatalf("t=%v sat %d: subpoint %v != %v", tt, i, got, want)
		}
	}
}

// TestChainSlotRefillsOnlyItsOwn drives a chain the way DeltaCompile does
// — evict what is older than the previous slot, then take this slot's
// geometry — and checks that the chain refills the memory of geometries it
// evicted (bit-identical to a fresh build), that the free list never holds
// more than two, and that a geometry Slot handed out is never refilled: it
// still reads as its own slot time five slots after the chain passed it.
func TestChainSlotRefillsOnlyItsOwn(t *testing.T) {
	pc := newTestCache(4, 4)
	const dt, held = 30.0, 4
	var heldGeom *SlotGeom
	seen := map[*SlotGeom]bool{}
	recycled := 0
	for k := 0; k <= held+5; k++ {
		tt := float64(k) * dt
		pc.DropSlotsBefore(tt - dt)
		if free := pc.freeLen(); free > maxFree {
			t.Fatalf("slot %d: free list holds %d geometries, want at most %d", k, free, maxFree)
		}
		g := pc.ChainSlot(tt)
		if g == heldGeom {
			t.Fatalf("slot %d: the chain refilled the geometry Slot handed out", k)
		}
		if seen[g] {
			recycled++
		}
		seen[g] = true
		checkSlotGeom(t, pc, g, tt)
		if pc.ChainSlot(tt) != g {
			t.Fatalf("slot %d: geometry not memoized", k)
		}
		if k == held {
			if heldGeom = pc.Slot(tt); heldGeom != g {
				t.Fatalf("slot %d: Slot and ChainSlot disagree on one slot time", k)
			}
		}
	}
	if recycled == 0 {
		t.Error("the chain never refilled an evicted geometry")
	}
	checkSlotGeom(t, pc, heldGeom, held*dt)

	// Evicting many chain geometries at once keeps two of them.
	for k := 0; k < 6; k++ {
		pc.ChainSlot(1e5 + float64(k)*dt)
	}
	pc.DropSlotsBefore(1e6)
	if n := pc.freeLen(); n != maxFree {
		t.Errorf("free list holds %d geometries after a mass eviction, want %d", n, maxFree)
	}
}

// freeLen returns how many geometries the free list holds.
func (pc *PropCache) freeLen() int {
	pc.slotMu.Lock()
	defer pc.slotMu.Unlock()
	return len(pc.free)
}
