package texture

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/orbit"
)

// TestCoverageCapacityNormalized pins the supply model of §4.1: A_t(i,j)
// is the fraction of satellite j's radio capacity over cell i, so each
// track's coverage sums to exactly 1 in every slot where it covers
// anything — a wide footprint spreads capacity, it does not multiply it.
func TestCoverageCapacityNormalized(t *testing.T) {
	lib, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := lib.Grid.NumCells()
	for j := 0; j < lib.NumTracks(); j++ {
		perSlot := make([]float64, lib.Slots)
		eachEntry(lib, j, func(k int, v float64) { perSlot[k/m] += v })
		for s, sum := range perSlot {
			if sum == 0 {
				continue // footprint missed every cell center this slot
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("track %d slot %d capacity sums to %v, want 1", j, s, sum)
			}
		}
	}
}

// TestHighAltitudeDoesNotMultiplyCapacity compares a low and a high track:
// the high one covers more cells but the same total capacity.
func TestHighAltitudeDoesNotMultiplyCapacity(t *testing.T) {
	cfg := Config{
		Grid:            geo.MustGrid(10),
		Specs:           []orbit.RepeatSpec{{P: 1, Q: 15}, {P: 1, Q: 12}}, // ~560 km vs ~1,670 km
		InclinationsDeg: []float64{53},
		RAANs:           1, Phases: 1, Slots: 6, SlotSeconds: 900, SubSamples: 2,
	}
	lib, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lib.NumTracks() != 2 {
		t.Fatalf("tracks = %d", lib.NumTracks())
	}
	var lo, hi int
	if lib.Tracks[0].Elements.Altitude() < lib.Tracks[1].Elements.Altitude() {
		lo, hi = 0, 1
	} else {
		lo, hi = 1, 0
	}
	if lib.TrackNNZ(hi) <= lib.TrackNNZ(lo) {
		t.Errorf("high track covers %d entries, low covers %d; expected more cells at altitude",
			lib.TrackNNZ(hi), lib.TrackNNZ(lo))
	}
	sum := func(j int) float64 {
		s := 0.0
		eachEntry(lib, j, func(_ int, v float64) { s += v })
		return s
	}
	// Total capacity over the horizon differs by at most the number of
	// empty slots, never by the footprint ratio.
	if sum(hi) > sum(lo)*1.5+1e-9 {
		t.Errorf("altitude multiplied capacity: %v vs %v", sum(hi), sum(lo))
	}
}
