package baseline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/orbit"
	"repro/internal/texture"
)

// The baselines' outputs on a small seeded instance, bit for bit: SolveILP
// stopped by its node cap (the deadline is an hour away, so it never binds)
// and MegaReduceShells, with X (or the survivors per shell), the trace of
// accepted moves and the float64 bits of every availability. A change to the
// covering arithmetic that moves one rounding moves a hash.
func TestPlannersGolden(t *testing.T) {
	lib, err := texture.Build(texture.Config{
		Grid:            geo.MustGrid(10),
		Specs:           []orbit.RepeatSpec{{P: 1, Q: 15}},
		InclinationsDeg: []float64{53, -53},
		RAANs:           4,
		Phases:          3,
		Slots:           4,
		SlotSeconds:     900,
		SubSamples:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Most of the supply of a 9-satellite placement, so that the greedy
	// leaf is feasible and the search goes on past it.
	seed := make([]int, lib.NumTracks())
	seed[0], seed[5], seed[13], seed[22] = 3, 2, 2, 2
	d := lib.Supply(seed)
	for k := range d {
		d[k] *= 0.8
	}
	ilp, err := SolveILP(ILPConfig{Library: lib, Demand: d, Epsilon: 0.95, Budget: time.Hour, MaxNodes: 400})
	if err != nil {
		t.Fatal(err)
	}
	if !ilp.Truncated || ilp.Nodes != 400 || ilp.Satellites == 0 {
		t.Fatalf("ILP: %d nodes, truncated %v, %d satellites: the node cap must bind after an incumbent",
			ilp.Nodes, ilp.Truncated, ilp.Satellites)
	}
	h := sha256.New()
	put := func(v ...uint64) {
		for _, x := range v {
			h.Write(binary.LittleEndian.AppendUint64(nil, x))
		}
	}
	for _, x := range ilp.X {
		put(uint64(x))
	}
	put(uint64(ilp.Satellites), uint64(ilp.Nodes), math.Float64bits(ilp.Availability))
	gotILP := hex.EncodeToString(h.Sum(nil))

	cfg := SupplyConfig{Grid: geo.MustGrid(10), Slots: 4, SlotSeconds: 900, SubSamples: 3}
	shells := []Shell{
		{"a", WalkerConfig{53, 550, 6, 6, 1}},
		{"b", WalkerConfig{85, 560, 3, 4, 1}},
	}
	sup := Supply(cfg, ShellSatellites(shells))
	y := make([]float64, len(sup))
	for i := range y {
		y[i] = 0.55 * sup[i]
	}
	h = sha256.New()
	mr, err := MegaReduceShells(ShellReduceConfig{
		Supply: cfg, Demand: y, Epsilon: 0.9, Shells: shells,
		OnStep: func(removed int, availability float64) { put(uint64(removed), math.Float64bits(availability)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if mr.Steps == 0 {
		t.Fatal("MegaReduceShells accepted no move: the test needs some")
	}
	for _, n := range mr.PerShell {
		put(uint64(n))
	}
	put(uint64(mr.Satellites), uint64(mr.Steps), uint64(mr.EntriesVisited), math.Float64bits(mr.Availability))
	gotMR := hex.EncodeToString(h.Sum(nil))

	for _, c := range []struct{ name, got, want string }{
		{"SolveILP", gotILP, "09566a99563fc20728b08d60fba46de8768c9a76d52b5a97cb0a5bd6c0377b4c"},
		{"MegaReduceShells", gotMR, "ed19b4657b22686ce14e2c8778fc7696695246d4d97690f9d3d0ee89758ffc34"},
	} {
		if c.got != c.want {
			t.Errorf("%s: hash %s, want %s", c.name, c.got, c.want)
		}
	}
}
