package orbit

import (
	"math"
	"math/rand"
	"testing"
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
				lt.Reset(pc.Slot(t0), cover)
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
	lt.Reset(pc.Slot(0), [][]int{{3, 4, 5}, {5, 9}})
	num := func(s int) int32 { return lt.local[s] }
	n3, n5, n9 := num(3), num(5), num(9)
	lt.Reset(pc.Slot(60), [][]int{{9, 3}, {7, 5}})
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
