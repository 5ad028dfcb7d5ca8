package texture

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestSatisfiedAndAvailability(t *testing.T) {
	supply := []float64{2, 0, 1, 0.5}
	demand := []float64{1, 1, 1, 0}
	if sat, tot := Satisfied(supply, demand); sat != 2 || tot != 3 {
		t.Errorf("Satisfied = %v of %v, want 2 of 3", sat, tot)
	}
	if a := Availability(supply, demand); math.Abs(a-2.0/3) > 1e-12 {
		t.Errorf("Availability = %v, want 2/3", a)
	}
	if a := Availability([]float64{5}, []float64{0}); a != 1 {
		t.Errorf("availability of no demand = %v, want 1", a)
	}
	defer func() {
		if recover() == nil {
			t.Error("Satisfied of vectors of lengths 3 and 4 did not panic")
		}
	}()
	Satisfied(supply[:3], demand)
}

func TestRemovalDelta(t *testing.T) {
	for _, c := range []struct{ s, d, y, want float64 }{
		{3, 1, 1, 0},      // surplus absorbs the removal
		{1.5, 1, 1, -0.5}, // part of it
		{0.5, 0.25, 1, -0.25},
		{1, 1, 1, -1},
		{2, 0, 1, 0},
	} {
		if got := RemovalDelta(c.s, c.d, c.y); got != c.want {
			t.Errorf("RemovalDelta(%v, %v, %v) = %v, want %v", c.s, c.d, c.y, got, c.want)
		}
	}
}

// TestResidualApplyRevert: Apply decrements each column the track covers by
// x·v_k clamped at zero, in column order, whether or not it logs; Revert of
// the log restores the residual to the last bit; and the satisfied demand of
// the placement's supply matches 1 − ‖r‖₁/‖ỹ‖₁.
func TestResidualApplyRevert(t *testing.T) {
	lib, err := Build(midConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	demand := make([]float64, lib.UnfoldedLen())
	for k := range demand {
		if rng.Intn(3) > 0 {
			demand[k] = rng.Float64() / 2
		}
	}
	r := NewResidual(demand)
	x := make([]int, lib.NumTracks())
	for _, j := range []int{5, 40, 41, 300, 611} {
		x[j] = 1 + j%3
		want := slices.Clone(r.R)
		remain := r.Remain
		eachEntry(lib, j, func(k int, v float64) {
			if rk := want[k]; rk > 0 {
				dec := min(float64(x[j])*v, rk)
				want[k] = rk - dec
				remain -= dec
			}
		})
		before := slices.Clone(r.R)
		logged := Residual{R: slices.Clone(r.R), Total: r.Total, Remain: r.Remain}
		var undo []Decrement
		logged.Apply(lib.TrackView(j), lib.Fractions(), x[j], &undo)
		r.Apply(lib.TrackView(j), lib.Fractions(), x[j], nil)
		if !slices.Equal(r.R, want) || math.Float64bits(r.Remain) != math.Float64bits(remain) {
			t.Fatalf("track %d: Apply differs from the column-order scan", j)
		}
		if !slices.Equal(logged.R, r.R) || logged.Remain != r.Remain || len(undo) == 0 {
			t.Fatalf("track %d: the logging Apply differs, or logged nothing", j)
		}
		// (r − dec) + dec rounds, so Revert restores r only to the last bit.
		logged.Revert(undo)
		for k, v := range logged.R {
			if math.Abs(v-before[k]) > 1e-15 {
				t.Fatalf("track %d: Revert left column %d at %v, not %v", j, k, v, before[k])
			}
		}
	}
	sat, tot := Satisfied(lib.Supply(x), demand)
	if tot != r.Total || math.Abs(sat/tot-r.Availability()) > 1e-9 {
		t.Errorf("Satisfied %v of %v, the residual's availability %v", sat, tot, r.Availability())
	}
}

func TestCheckDemand(t *testing.T) {
	if err := CheckDemand([]float64{0, 1.5, 0}); err != nil {
		t.Errorf("good demand: %v", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), -1} {
		if err := CheckDemand([]float64{0, bad}); err == nil {
			t.Errorf("demand %v accepted", bad)
		}
	}
}
