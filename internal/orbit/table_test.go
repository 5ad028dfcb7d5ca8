package orbit

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// TestLifeTableChainsBitIdentical is the slot tables' property test: over
// seeded chains of slots on one table — slot times one step apart, five
// steps apart, off the step grid, further apart than the horizon, and
// stepping backwards — with an active set that loses and regains
// satellites from slot to slot, every τ the table serves equals
// ISLLifetime and every position equals Elements.PositionECI, bit for bit.
// Run reuse fires on the chains whose sample times recur and on no other.
func TestLifeTableChainsBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name  string
		dt    float64
		reuse bool
	}{
		{"dt=step", 60, true},
		{"dt=5·step", 300, true},
		{"dt off the step grid", 37.5, false},
		{"dt beyond the horizon", 2000, false},
		{"backwards", -60, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pc := newTestCache(6, 6)
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			n := pc.NumSats()
			var lt LifeTable
			for slot := 0; slot < 12; slot++ {
				t0 := 7200 + float64(slot)*tc.dt
				// Two overlapping coverage lists of about 70 % of the
				// satellites: some leave, some come back.
				cover := make([][]int, 2)
				active := map[int]bool{}
				for s := 0; s < n; s++ {
					if rng.Float64() < 0.7 {
						k := rng.Intn(2)
						cover[k] = append(cover[k], s)
						if rng.Intn(3) == 0 {
							cover[1-k] = append(cover[1-k], s)
						}
						active[s] = true
					}
				}
				lt.Reset(pc.Slot(t0), cover, true)
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if !active[i] && !active[j] && rng.Intn(8) != 0 {
							continue // a sample of the pairs outside the table
						}
						want := ISLLifetime(pc.sats[i], pc.sats[j], t0, pc.horizon, pc.step, pc.isl)
						if got := lt.Lifetime(i, j); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("slot %d pair (%d,%d): table τ %v != direct %v", slot, i, j, got, want)
						}
					}
				}
				for i := range active {
					for m, off := range pc.offs {
						if got, want := lt.position(m, int(lt.local[i]), i), pc.sats[i].PositionECI(t0+off); got != want {
							t.Fatalf("slot %d sat %d sample %d: table %v != direct %v", slot, i, m, got, want)
						}
					}
				}
				lt.Flush()
			}
			st := pc.Stats()
			if st.WarmSamples == 0 {
				t.Fatal("the walks evaluated no samples")
			}
			if tc.reuse && st.WarmSkips == 0 {
				t.Error("sample times recur from slot to slot, yet no walk reused a run")
			}
			if !tc.reuse && tc.dt > pc.horizon && st.WarmSkips != 0 {
				t.Errorf("%d samples taken from runs that share no sample time", st.WarmSkips)
			}
		})
	}
}

// TestLifeTableNumbersStayPut: a satellite keeps its active-set number for
// as long as it stays active, a number is handed out again only after its
// holder left, and the table grows no further than the largest active set
// it has seen.
func TestLifeTableNumbersStayPut(t *testing.T) {
	pc := newTestCache(5, 5)
	var lt LifeTable
	lt.Reset(pc.Slot(0), [][]int{{3, 4, 5}, {5, 9}}, true)
	num := func(s int) int32 { return lt.local[s] }
	n3, n5, n9 := num(3), num(5), num(9)
	lt.Reset(pc.Slot(60), [][]int{{9, 3}, {7, 5}}, true)
	if num(3) != n3 || num(5) != n5 || num(9) != n9 {
		t.Errorf("numbers moved: 3:%d→%d 5:%d→%d 9:%d→%d", n3, num(3), n5, num(5), n9, num(9))
	}
	if num(4) != -1 {
		t.Errorf("satellite 4 left but keeps number %d", num(4))
	}
	if len(lt.sat) != 4 {
		t.Errorf("table spans %d numbers for at most 4 active satellites", len(lt.sat))
	}
	seen := map[int32]int{}
	for s, a := range lt.local {
		if a < 0 {
			continue
		}
		if other, dup := seen[a]; dup {
			t.Errorf("satellites %d and %d share number %d", other, s, a)
		}
		seen[a] = s
		if int(lt.sat[a]) != s {
			t.Errorf("number %d maps back to %d, not %d", a, lt.sat[a], s)
		}
	}
}

// TestLifeTableEntrySizes: a τ entry is a 2-byte code and a visibility run
// one 4-byte word, and Footprint counts them at those sizes.
func TestLifeTableEntrySizes(t *testing.T) {
	var lt LifeTable
	if s := unsafe.Sizeof(lt.tau[0]); s != 2 {
		t.Errorf("a τ entry is %d B, want 2", s)
	}
	if s := unsafe.Sizeof(visRun(0)); s != 4 {
		t.Errorf("a visibility run is %d B, want 4", s)
	}
	pc := newTestCache(5, 5)
	lt.Reset(pc.Slot(0), allActive(pc), true)
	tau, runs, pairs := lt.Footprint()
	if pairs != 25*26/2 || tau != 2*cap(lt.tau) || runs != 4*cap(lt.runs) {
		t.Errorf("Footprint %d B of τ and %d B of runs over %d pairs; capacities %d and %d",
			tau, runs, pairs, cap(lt.tau), cap(lt.runs))
	}
}

// stalePairs returns up to k pairs of pc's satellites that are in range
// and visible at t0, so a walk of any of them records a visible sample.
func stalePairs(t *testing.T, pc *PropCache, t0 float64, k int) [][2]int {
	t.Helper()
	var out [][2]int
	for i := 0; i < pc.NumSats() && len(out) < k; i++ {
		for j := 0; j < i && len(out) < k; j++ {
			if ISLLifetime(pc.sats[i], pc.sats[j], t0, pc.horizon, pc.step, pc.isl) > 0 {
				out = append(out, [2]int{i, j})
			}
		}
	}
	if len(out) < k {
		t.Fatalf("only %d visible pairs at t=%v", len(out), t0)
	}
	return out
}

// TestStaleRunsWalkAgain: a run whose base time has left the table's ring
// of Reset times — runRing or more Resets old — is not reused. Every Reset
// below is at the same slot time, so the run would match every sample: its
// pair is walked with real Visible calls only because the run is stale,
// and τ still equals ISLLifetime. First on a table fewer than 2^16 Resets
// old, then across the 16-bit epoch's wrap, after which an unswept run
// would look a few Resets old.
func TestStaleRunsWalkAgain(t *testing.T) {
	pc := newTestCache(6, 6)
	const t0 = 600.0
	g := pc.Slot(t0)
	var lt LifeTable
	// walk returns τ of (i, j) and the samples its walk took from a run.
	walk := func(p [2]int) (tau float64, skips uint64) {
		before := lt.stats.WarmSkips
		tau = lt.Lifetime(p[0], p[1])
		if want := ISLLifetime(pc.sats[p[0]], pc.sats[p[1]], t0, pc.horizon, pc.step, pc.isl); math.Float64bits(tau) != math.Float64bits(want) {
			t.Fatalf("pair %v: table τ %v != direct %v", p, tau, want)
		}
		return tau, lt.stats.WarmSkips - before
	}

	t.Run("older than the ring", func(t *testing.T) {
		ps := stalePairs(t, pc, t0, 2)
		fresh, stale := ps[0], ps[1]
		lt = LifeTable{}
		lt.Reset(g, allActive(pc), true)
		walk(fresh)
		walk(stale)
		for range runRing - 1 {
			lt.Reset(g, allActive(pc), true)
		}
		if _, skips := walk(fresh); skips == 0 {
			t.Errorf("a run %d Resets old was not reused", runRing-1)
		}
		lt.Reset(g, allActive(pc), true)
		if _, skips := walk(stale); skips != 0 {
			t.Errorf("a run %d Resets old gave %d samples; want real Visible calls", runRing, skips)
		}
	})

	t.Run("across the epoch wrap", func(t *testing.T) {
		ps := stalePairs(t, pc, t0, 2)
		kept, stale := ps[0], ps[1]
		cover := [][]int{{kept[0], kept[1], stale[0], stale[1]}}
		lt = LifeTable{}
		lt.Reset(g, cover, true)
		walk(stale)
		const resets = 1<<16 + 10 // 10 modulo the epoch's 2^16
		for r := range resets {
			lt.Reset(g, cover, true)
			if _, skips := walk(kept); r > 0 && skips == 0 {
				t.Fatalf("Reset %d: the pair walked every slot reused nothing", r)
			}
		}
		if _, skips := walk(stale); skips != 0 {
			t.Errorf("a run %d Resets old gave %d samples; want real Visible calls", resets, skips)
		}
	})
}

// TestLifeTableLargestWindow: at the largest window the codes hold,
// MaxWindowSamples samples, a pair visible throughout has τ = the horizon,
// and its run — every sample visible — is reused by the next slot.
func TestLifeTableLargestWindow(t *testing.T) {
	sats := cacheTestConstellation(1, 2)
	sats[1].Phase = sats[0].Phase + 0.1
	pc := NewPropCache(sats, DefaultISLParams, MaxWindowSamples-1, 1)
	if len(pc.offs) != MaxWindowSamples {
		t.Fatalf("window of %d samples, want %d", len(pc.offs), MaxWindowSamples)
	}
	var lt LifeTable
	for slot, t0 := range []float64{0, 1} {
		lt.Reset(pc.Slot(t0), allActive(pc), true)
		if got := lt.Lifetime(0, 1); got != pc.horizon {
			t.Fatalf("slot %d: τ %v, want the horizon %v", slot, got, pc.horizon)
		}
	}
	if want := uint64(MaxWindowSamples - 1); lt.stats.WarmSkips != want {
		t.Errorf("the second slot took %d samples from the run, want %d", lt.stats.WarmSkips, want)
	}
}
