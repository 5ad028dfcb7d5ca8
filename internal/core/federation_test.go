package core

import (
	"math"
	"testing"

	"repro/internal/demand"
	"repro/internal/geo"
)

// regionalDemand returns a demand field limited to a lat/lon box.
func regionalDemand(lib libGrid, total float64, minLat, maxLat, minLon, maxLon float64) []float64 {
	opt := demand.ScenarioOptions{
		Grid: lib.grid(), Slots: lib.slots(), SlotSeconds: lib.slotSeconds(),
		TotalSatUnits: total,
	}
	full := demand.StarlinkCustomers(opt)
	m := full.Grid.NumCells()
	out := make([]float64, len(full.Y))
	for i := 0; i < m; i++ {
		c := full.Grid.Center(i)
		if c.Lat < minLat || c.Lat > maxLat || c.Lon < minLon || c.Lon > maxLon {
			continue
		}
		for s := 0; s < full.Slots; s++ {
			out[s*m+i] = full.Y[s*m+i]
		}
	}
	return out
}

type libGrid interface {
	grid() *geo.Grid
	slots() int
	slotSeconds() float64
}

func TestFederateSharedBeatsIndependent(t *testing.T) {
	lib := testLibrary(t)
	w := wrap{lib.Grid, lib.Slots, lib.SlotSeconds}
	// Two operators with overlapping mid-latitude regions: the Americas
	// and Europe+Africa. Their satellites pass over each other's regions,
	// which is exactly where federation saves launches.
	ops := []Operator{
		{Name: "americas-isp", Demand: regionalDemand(w, 60, -40, 55, -130, -30), Epsilon: 0.8},
		{Name: "emea-isp", Demand: regionalDemand(w, 60, -40, 60, -15, 60), Epsilon: 0.8},
	}
	res, err := Federate(Problem{Library: lib}, ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.Satellites == 0 {
		t.Fatal("empty federation")
	}
	if res.Satellites > res.IndependentSatellites {
		t.Errorf("federation (%d) more expensive than independent plans (%d)",
			res.Satellites, res.IndependentSatellites)
	}
	if res.SharingGain != res.IndependentSatellites-res.Satellites {
		t.Error("gain accounting inconsistent")
	}
	// Both operators meet their availability on the shared fleet.
	for _, op := range ops {
		if a := res.Availability[op.Name]; a < op.Epsilon-1e-9 {
			t.Errorf("%s: availability %v < %v on the shared fleet", op.Name, a, op.Epsilon)
		}
	}
	// Contributions sum to the combined fleet.
	sum := 0
	for _, name := range res.OperatorNames() {
		c := res.ContributionSize(name)
		if c < 0 {
			t.Errorf("%s: negative contribution %d", name, c)
		}
		sum += c
	}
	if sum != res.Satellites {
		t.Errorf("contributions sum %d != combined %d", sum, res.Satellites)
	}
}

func TestFederateValidation(t *testing.T) {
	lib := testLibrary(t)
	if _, err := Federate(Problem{}, nil); err == nil {
		t.Error("nil library accepted")
	}
	if _, err := Federate(Problem{Library: lib}, nil); err == nil {
		t.Error("empty operator list accepted")
	}
	bad := []Operator{{Name: "x", Demand: []float64{1}, Epsilon: 0.9}}
	if _, err := Federate(Problem{Library: lib}, bad); err == nil {
		t.Error("bad demand length accepted")
	}
	nan := []Operator{{Name: "x", Demand: make([]float64, lib.UnfoldedLen()), Epsilon: math.NaN()}}
	if _, err := Federate(Problem{Library: lib}, nan); err == nil {
		t.Error("epsilon NaN accepted")
	}
	w := wrap{lib.Grid, lib.Slots, lib.SlotSeconds}
	d := regionalDemand(w, 20, -40, 55, -130, -30)
	dup := []Operator{
		{Name: "same", Demand: d, Epsilon: 0.8},
		{Name: "same", Demand: d, Epsilon: 0.8},
	}
	if _, err := Federate(Problem{Library: lib}, dup); err == nil {
		t.Error("duplicate operator accepted")
	}
}

// wrap adapts the library fields to the regionalDemand helper.
type wrap struct {
	g  *geo.Grid
	s  int
	ss float64
}

func (w wrap) grid() *geo.Grid      { return w.g }
func (w wrap) slots() int           { return w.s }
func (w wrap) slotSeconds() float64 { return w.ss }
