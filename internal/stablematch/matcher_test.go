package stablematch

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// prefsBySort is PrefsFromWeights as it was before the Matcher — a fresh
// list per row and a stable reflection sort — kept as the reference.
func prefsBySort(w [][]float64, cutoff float64) [][]int {
	prefs := make([][]int, len(w))
	for i, row := range w {
		var list []int
		for j, v := range row {
			if v > cutoff {
				list = append(list, j)
			}
		}
		sort.SliceStable(list, func(a, b int) bool { return row[list[a]] > row[list[b]] })
		prefs[i] = list
	}
	return prefs
}

// oneToOneDirect is OneToOne as it was before it became the unit-capacity
// case of ManyToOne: its own deferred-acceptance loop, proposing in the
// opposite order. With strict ranks the proposer-optimal matching is
// unique, so the two must agree.
func oneToOneDirect(proposerPrefs, reviewerRank [][]int) []int {
	match := make([]int, len(proposerPrefs))
	next := make([]int, len(proposerPrefs))
	holds := make([]int, len(reviewerRank))
	var free []int
	for j := range holds {
		holds[j] = -1
	}
	for i := range match {
		match[i] = -1
		free = append(free, i)
	}
	for len(free) > 0 {
		i := free[len(free)-1]
		free = free[:len(free)-1]
		for next[i] < len(proposerPrefs[i]) {
			j := proposerPrefs[i][next[i]]
			next[i]++
			rank := rankOf(reviewerRank[j], i)
			if rank < 0 {
				continue
			}
			if cur := holds[j]; cur == -1 {
				holds[j], match[i] = i, j
				break
			} else if rankOf(reviewerRank[j], cur) > rank {
				match[cur] = -1
				free = append(free, cur)
				holds[j], match[i] = i, j
				break
			}
		}
	}
	return match
}

// sameRows compares row by row, an empty row equal to a nil one.
func sameRows(a, b [][]int) bool {
	return slices.EqualFunc(a, b, func(x, y []int) bool { return slices.Equal(x, y) })
}

// TestMatcherReuse matches 1,000 seeded instances — tied weights, cutoffs,
// zero capacities, rows with no acceptable partner, sizes that shrink and
// grow again — on one Matcher, in the order the MPC's stages call it, and
// checks every result against the package functions, which run on a fresh
// Matcher each: nothing of an earlier instance may leak into a later one.
func TestMatcherReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(1000))
	weights := func(r, c int) [][]float64 {
		w := make([][]float64, r)
		for i := range w {
			w[i] = make([]float64, c)
			if rng.Intn(10) == 0 {
				continue // nobody acceptable
			}
			for j := range w[i] {
				w[i][j] = float64(rng.Intn(5)) / 4 // few levels: many ties, some zeros
			}
		}
		return w
	}
	var m Matcher
	for trial := 0; trial < 1000; trial++ {
		big := 1 + 12*(trial/100%2) // sizes shrink and grow every hundred instances
		nP, nR := rng.Intn(8*big+1), rng.Intn(4*big+1)
		w, rw := weights(nP, nR), weights(nR, nP)
		cutoff := []float64{0, 0.25}[rng.Intn(2)]
		caps := make([]int, nR)
		for j := range caps {
			caps[j] = rng.Intn(4) // zero capacities included
		}

		wantP, wantR := PrefsFromWeights(w, cutoff), PrefsFromWeights(rw, cutoff)
		if !sameRows(wantP, prefsBySort(w, cutoff)) {
			t.Fatalf("trial %d: PrefsFromWeights = %v, reference sort %v", trial, wantP, prefsBySort(w, cutoff))
		}
		wantRank := RanksFromPrefs(wantR, nP)
		wantOne := OneToOne(wantP, wantRank)
		wantMatch, wantHeld := ManyToOne(wantP, wantRank, caps)
		if !IsStableOneToOne(wantOne, RanksFromPrefs(wantP, nR), wantRank) {
			t.Fatalf("trial %d: unstable one-to-one matching %v", trial, wantOne)
		}
		if direct := oneToOneDirect(wantP, wantRank); !slices.Equal(wantOne, direct) {
			t.Fatalf("trial %d: OneToOne %v, its own loop gave %v", trial, wantOne, direct)
		}

		rank := m.RanksFromPrefs(m.PrefsFromWeights(rw, cutoff), nP)
		prefs := m.PrefsFromWeights(w, cutoff)
		if !sameRows(prefs, wantP) || !sameRows(rank, wantRank) {
			t.Fatalf("trial %d: reused prefs %v ranks %v, fresh %v %v", trial, prefs, rank, wantP, wantRank)
		}
		if one := m.OneToOne(prefs, rank); !slices.Equal(one, wantOne) {
			t.Fatalf("trial %d: reused OneToOne %v, fresh %v", trial, one, wantOne)
		}
		match, held := m.ManyToOne(prefs, rank, caps)
		if !slices.Equal(match, wantMatch) || !sameRows(held, wantHeld) {
			t.Fatalf("trial %d: reused ManyToOne %v %v, fresh %v %v", trial, match, held, wantMatch, wantHeld)
		}
	}
}
