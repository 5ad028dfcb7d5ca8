package stablematch

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestPrefsFromWeights(t *testing.T) {
	w := [][]float64{
		{0.5, 2.0, 1.0},
		{0, 0, 0},
	}
	prefs := PrefsFromWeights(w, 0)
	if !reflect.DeepEqual(prefs[0], []int{1, 2, 0}) {
		t.Errorf("prefs[0] = %v", prefs[0])
	}
	if len(prefs[1]) != 0 {
		t.Errorf("prefs[1] = %v, all weights at cutoff", prefs[1])
	}
	// Ties break toward lower index.
	p := PrefsFromWeights([][]float64{{3, 3, 5}}, 0)
	if !reflect.DeepEqual(p[0], []int{2, 0, 1}) {
		t.Errorf("tie-break = %v", p[0])
	}
}

func TestOneToOneTextbook(t *testing.T) {
	// Classic 3x3 instance.
	pPrefs := [][]int{{0, 1, 2}, {1, 0, 2}, {0, 1, 2}}
	rPrefs := [][]int{{1, 0, 2}, {0, 1, 2}, {0, 1, 2}}
	rRank := RanksFromPrefs(rPrefs, 3)
	match := OneToOne(pPrefs, rRank)
	pRank := RanksFromPrefs(pPrefs, 3)
	if !IsStableOneToOne(match, pRank, rRank) {
		t.Fatalf("unstable matching %v", match)
	}
	// Every proposer matched in a complete instance.
	for i, j := range match {
		if j == -1 {
			t.Errorf("proposer %d unmatched", i)
		}
	}
}

func TestOneToOneUnacceptable(t *testing.T) {
	// Reviewer 0 finds proposer 1 unacceptable.
	pPrefs := [][]int{{0}, {0}}
	rRank := [][]int{{0, -1}}
	match := OneToOne(pPrefs, rRank)
	if match[0] != 0 || match[1] != -1 {
		t.Errorf("match = %v", match)
	}
}

func TestOneToOneStabilityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		nP, nR := 1+rng.Intn(8), 1+rng.Intn(8)
		w := make([][]float64, nP)
		for i := range w {
			w[i] = make([]float64, nR)
			for j := range w[i] {
				if rng.Float64() < 0.8 {
					w[i][j] = rng.Float64()
				}
			}
		}
		pPrefs := PrefsFromWeights(w, 0)
		// Reviewer weights: transpose with fresh noise.
		rw := make([][]float64, nR)
		for j := range rw {
			rw[j] = make([]float64, nP)
			for i := range rw[j] {
				if w[i][j] > 0 {
					rw[j][i] = rng.Float64()
				}
			}
		}
		rPrefs := PrefsFromWeights(rw, 0)
		rRank := RanksFromPrefs(rPrefs, nP)
		pRank := RanksFromPrefs(pPrefs, nR)
		match := OneToOne(pPrefs, rRank)
		// No reviewer matched twice.
		seen := map[int]bool{}
		for _, j := range match {
			if j >= 0 {
				if seen[j] {
					t.Fatal("reviewer double-matched")
				}
				seen[j] = true
			}
		}
		if !IsStableOneToOne(match, pRank, rRank) {
			t.Fatalf("trial %d: unstable matching", trial)
		}
	}
}

func TestManyToOneCapacities(t *testing.T) {
	// 4 satellites, 2 neighbor cells with capacities 2 and 1.
	pPrefs := [][]int{{0, 1}, {0, 1}, {0, 1}, {1, 0}}
	rRank := [][]int{
		{0, 1, 2, 3}, // cell 0 prefers sat 0 > 1 > 2 > 3
		{3, 2, 1, 0}, // cell 1 prefers sat 3 > 2 > 1 > 0
	}
	match, assigned := ManyToOne(pPrefs, rRank, []int{2, 1})
	if len(assigned[0]) != 2 || len(assigned[1]) != 1 {
		t.Fatalf("assigned = %v", assigned)
	}
	// Cell 0 ends with its two favourites that want it: sats 0 and 1.
	if !reflect.DeepEqual(assigned[0], []int{0, 1}) {
		t.Errorf("cell 0 holds %v", assigned[0])
	}
	if !reflect.DeepEqual(assigned[1], []int{3}) {
		t.Errorf("cell 1 holds %v", assigned[1])
	}
	if match[2] != -1 {
		t.Errorf("sat 2 should be unmatched, got %d", match[2])
	}
}

func TestManyToOneZeroCapacity(t *testing.T) {
	pPrefs := [][]int{{0}}
	rRank := [][]int{{0}}
	match, assigned := ManyToOneWrapper(pPrefs, rRank, []int{0})
	if match[0] != -1 || len(assigned[0]) != 0 {
		t.Errorf("zero capacity matched: %v %v", match, assigned)
	}
}

// ManyToOneWrapper keeps the test readable.
func ManyToOneWrapper(p [][]int, r [][]int, c []int) ([]int, [][]int) {
	return ManyToOne(p, r, c)
}

func TestManyToOneNoBlockingPair(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		nP, nR := 2+rng.Intn(10), 1+rng.Intn(4)
		w := make([][]float64, nP)
		for i := range w {
			w[i] = make([]float64, nR)
			for j := range w[i] {
				w[i][j] = rng.Float64()
			}
		}
		pPrefs := PrefsFromWeights(w, 0)
		rw := make([][]float64, nR)
		for j := range rw {
			rw[j] = make([]float64, nP)
			for i := range rw[j] {
				rw[j][i] = rng.Float64()
			}
		}
		rPrefs := PrefsFromWeights(rw, 0)
		rRank := RanksFromPrefs(rPrefs, nP)
		caps := make([]int, nR)
		for j := range caps {
			caps[j] = 1 + rng.Intn(3)
		}
		match, assigned := ManyToOne(pPrefs, rRank, caps)
		// Capacity respected.
		for j, held := range assigned {
			if len(held) > caps[j] {
				t.Fatalf("capacity exceeded at %d", j)
			}
		}
		// Consistency between match and assigned.
		for j, held := range assigned {
			for _, i := range held {
				if match[i] != j {
					t.Fatalf("inconsistent match/assigned")
				}
			}
		}
		// No blocking pair: a satellite i preferring cell j over its match
		// while j has spare capacity or holds someone worse.
		pRank := RanksFromPrefs(pPrefs, nR)
		for i := 0; i < nP; i++ {
			for j := 0; j < nR; j++ {
				pr := pRank[i][j]
				rr := rRank[j][i]
				if pr < 0 || rr < 0 {
					continue
				}
				iPrefers := match[i] == -1 || pRank[i][match[i]] > pr
				if !iPrefers {
					continue
				}
				if len(assigned[j]) < caps[j] && caps[j] > 0 {
					t.Fatalf("trial %d: blocking pair (%d,%d): spare capacity", trial, i, j)
				}
				for _, held := range assigned[j] {
					if rRank[j][held] > rr {
						t.Fatalf("trial %d: blocking pair (%d,%d): displaces %d", trial, i, j, held)
					}
				}
			}
		}
	}
}

// tiedInstance draws a seeded instance whose weights take three values
// (0 is unacceptable), so preference lists are full of ties and only the
// tie-break decides the order.
func tiedInstance(seed int64, nP, nR int) (w, rw [][]float64, caps []int) {
	rng := rand.New(rand.NewSource(seed))
	w = make([][]float64, nP)
	for i := range w {
		w[i] = make([]float64, nR)
		for j := range w[i] {
			w[i][j] = float64(rng.Intn(3))
		}
	}
	rw = make([][]float64, nR)
	for j := range rw {
		rw[j] = make([]float64, nP)
		for i := range rw[j] {
			rw[j][i] = float64(rng.Intn(3))
		}
	}
	caps = make([]int, nR)
	for j := range caps {
		caps[j] = 1 + rng.Intn(3)
	}
	return w, rw, caps
}

// TestMatchingsRunTwiceIdentical solves the same tied instance twice, from
// weights to matchings, and requires identical results: a map-order
// dependency or a draw from the randomly seeded global source would make
// the two runs differ.
func TestMatchingsRunTwiceIdentical(t *testing.T) {
	type result struct {
		prefs, rPrefs [][]int
		one           []int
		many          []int
		assigned      [][]int
	}
	solve := func() result {
		w, rw, caps := tiedInstance(7, 40, 12)
		var r result
		r.prefs = PrefsFromWeights(w, 0)
		r.rPrefs = PrefsFromWeights(rw, 0)
		rRank := RanksFromPrefs(r.rPrefs, len(w))
		r.one = OneToOne(r.prefs, rRank)
		r.many, r.assigned = ManyToOne(r.prefs, rRank, caps)
		return r
	}
	first, second := solve(), solve()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("two runs on one instance differ:\n%+v\n%+v", first, second)
	}
}
