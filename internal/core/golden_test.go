package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/demand"
)

// goldenHash writes ints and the bits of floats into a sha256, in the order
// given.
type goldenHash struct{ h hash.Hash }

func (g goldenHash) ints(v ...int) {
	for _, x := range v {
		g.h.Write(binary.LittleEndian.AppendUint64(nil, uint64(x)))
	}
}

func (g goldenHash) floats(v ...float64) {
	for _, x := range v {
		g.h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
	}
}

func (g goldenHash) result(r *Result) {
	g.ints(r.X...)
	g.ints(r.Satellites, r.Iterations, r.Pruned, len(r.Trace))
	for _, s := range r.Trace {
		g.ints(s.Iteration, s.Track, s.Added, s.Satellites)
		g.floats(s.Availability)
	}
	g.floats(r.Availability)
}

func (g goldenHash) sum() string { return hex.EncodeToString(g.h.Sum(nil)) }

// The planners' outputs on a small seeded instance, bit for bit: X, the
// iteration trace and the float64 bits of every availability of Sparsify
// (greedy adds of one and of four, the second of which prunes), Expand and
// Federate. A change to the covering arithmetic that moves one rounding
// moves a hash.
func TestPlannersGolden(t *testing.T) {
	lib := testLibrary(t)
	opt := demand.ScenarioOptions{Grid: lib.Grid, Slots: lib.Slots, SlotSeconds: lib.SlotSeconds, TotalSatUnits: 80}
	base := demand.StarlinkCustomers(opt)
	opt.TotalSatUnits = 40
	extra := demand.LatinAmerica(opt)
	w := wrap{lib.Grid, lib.Slots, lib.SlotSeconds}
	ops := []Operator{
		{Name: "americas-isp", Demand: regionalDemand(w, 60, -40, 55, -130, -30), Epsilon: 0.8},
		{Name: "emea-isp", Demand: regionalDemand(w, 60, -40, 60, -15, 60), Epsilon: 0.85},
	}

	got := map[string]string{}

	p := Problem{Library: lib, Demand: base.Y, Epsilon: 0.9, Parallelism: 2}
	first, err := Sparsify(p)
	if err != nil {
		t.Fatal(err)
	}
	g := goldenHash{sha256.New()}
	g.result(first)
	got["sparsify"] = g.sum()

	p4 := p
	p4.MaxAddPerIteration = 4
	batched, err := Sparsify(p4)
	if err != nil {
		t.Fatal(err)
	}
	if batched.Pruned == 0 {
		t.Fatal("the batched run pruned nothing: the test needs prune to run")
	}
	g = goldenHash{sha256.New()}
	g.result(batched)
	got["sparsify4"] = g.sum()

	expanded, err := Expand(p, first, extra.Y)
	if err != nil {
		t.Fatal(err)
	}
	g = goldenHash{sha256.New()}
	g.result(expanded)
	got["expand"] = g.sum()

	fed, err := Federate(Problem{Library: lib, Parallelism: 2}, ops)
	if err != nil {
		t.Fatal(err)
	}
	g = goldenHash{sha256.New()}
	g.ints(fed.Combined...)
	g.ints(fed.Satellites, fed.IndependentSatellites, fed.SharingGain)
	for _, name := range fed.OperatorNames() {
		g.ints(fed.Contributions[name]...)
		g.floats(fed.Availability[name])
	}
	got["federate"] = g.sum()

	for _, c := range []struct{ name, want string }{
		{"sparsify", "d0623582afc74832eb6e4c55292ff87eea4296837b3d461d2b462904f05405a4"},
		{"sparsify4", "a7b3dc9d86b5230f19c3db5e077d782a882ea48f4a66e362534870e9c4fbc25a"},
		{"expand", "3ae81297863d6f103fe83d1fa6a1d5633c15d78c5d6d9b616862b8d77eca2aa2"},
		{"federate", "1923d33c3aed3fe7a8ba6c4071b33594ac7ec432b4a746ca147923dee200c02f"},
	} {
		if got[c.name] != c.want {
			t.Errorf("%s: hash %s, want %s", c.name, got[c.name], c.want)
		}
	}
}
