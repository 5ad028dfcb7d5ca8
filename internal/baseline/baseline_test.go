package baseline

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/orbit"
	"repro/internal/texture"
)

func TestWalkerGeneratesExpectedCount(t *testing.T) {
	w := WalkerConfig{53, 550, 6, 4, 1}
	sats := w.Satellites()
	if len(sats) != 24 || w.NumSatellites() != 24 {
		t.Fatalf("count = %d", len(sats))
	}
	raans := map[float64]int{}
	for _, s := range sats {
		if math.Abs(s.Altitude()-550e3) > 1 {
			t.Errorf("altitude %v", s.Altitude())
		}
		if math.Abs(geom.Rad2Deg(s.Inclination)-53) > 1e-9 {
			t.Errorf("inclination %v", s.Inclination)
		}
		raans[math.Round(geom.Rad2Deg(s.RAAN))]++
	}
	if len(raans) != 6 {
		t.Errorf("expected 6 planes, got %d distinct RAANs", len(raans))
	}
	for r, n := range raans {
		if n != 4 {
			t.Errorf("plane at RAAN %v has %d sats", r, n)
		}
	}
}

func TestWalkerPhasesDistinct(t *testing.T) {
	w := WalkerConfig{53, 550, 3, 5, 1}
	sats := w.Satellites()
	// Within a plane, no two satellites share a phase.
	seen := map[[2]float64]bool{}
	for _, s := range sats {
		key := [2]float64{math.Round(geom.Rad2Deg(s.RAAN)), math.Round(geom.Rad2Deg(s.Phase))}
		if seen[key] {
			t.Fatalf("duplicate slot %v", key)
		}
		seen[key] = true
	}
}

func TestStarlinkShellsMatchPaperTotal(t *testing.T) {
	total := 0
	for _, sh := range StarlinkShells() {
		total += sh.Config.NumSatellites()
	}
	if total != 6793 {
		t.Errorf("Starlink approximation has %d satellites, paper says 6,793", total)
	}
	if len(StarlinkSatellites()) != total {
		t.Error("ShellSatellites expansion mismatch")
	}
	// Majority of satellites at 53-ish inclination, per Figure 2.
	low := 0
	for _, s := range StarlinkSatellites() {
		if inc := geom.Rad2Deg(s.Inclination); inc < 55 {
			low++
		}
	}
	if float64(low)/float64(total) < 0.6 {
		t.Errorf("only %d/%d satellites below 55° inclination", low, total)
	}
}

func supplyCfg() SupplyConfig {
	return SupplyConfig{Grid: geo.MustGrid(10), Slots: 4, SlotSeconds: 900, SubSamples: 1}
}

func TestSupplyNonNegativeAndPlausible(t *testing.T) {
	w := WalkerConfig{53, 550, 8, 8, 1}
	sup := Supply(supplyCfg(), w.Satellites())
	total := 0.0
	for _, v := range sup {
		if v < 0 {
			t.Fatal("negative supply")
		}
		total += v
	}
	if total == 0 {
		t.Fatal("no coverage at all")
	}
	// Capacity supply: each satellite contributes at most 1 unit per slot
	// (and exactly 1 whenever its footprint touches any cell center).
	if total > float64(64*4)+1e-6 {
		t.Errorf("total capacity supply %v exceeds satellites × slots", total)
	}
	if total < float64(64*4)*0.5 {
		t.Errorf("total capacity supply %v suspiciously small", total)
	}
	// Count mode tallies every covered cell instead.
	cfg := supplyCfg()
	cfg.CountSatellites = true
	countTotal := 0.0
	for _, v := range Supply(cfg, w.Satellites()) {
		countTotal += v
	}
	if countTotal < total {
		t.Errorf("count supply %v below capacity supply %v", countTotal, total)
	}
}

func TestSupplyUniformConstellationFavorsNoLongitude(t *testing.T) {
	// A Walker constellation's time-averaged supply should be roughly
	// longitude-independent (it is latitude-dependent).
	g := geo.MustGrid(10)
	cfg := SupplyConfig{Grid: g, Slots: 12, SlotSeconds: 900, SubSamples: 2}
	w := WalkerConfig{53, 550, 12, 12, 1}
	sup := Supply(cfg, w.Satellites())
	m := g.NumCells()
	// Average per longitude column on the equatorial row.
	row := g.LatRows() / 2
	var per []float64
	for col := 0; col < g.LonCols(); col++ {
		id := g.CellID(row, col)
		s := 0.0
		for t := 0; t < cfg.Slots; t++ {
			s += sup[t*m+id]
		}
		per = append(per, s)
	}
	mean, maxDev := 0.0, 0.0
	for _, v := range per {
		mean += v
	}
	mean /= float64(len(per))
	for _, v := range per {
		if d := math.Abs(v - mean); d > maxDev {
			maxDev = d
		}
	}
	if mean == 0 {
		t.Fatal("no equatorial coverage")
	}
	if maxDev/mean > 0.8 {
		t.Errorf("uniform constellation has %.0f%% longitudinal deviation", 100*maxDev/mean)
	}
}

func TestAvailabilityAndWaste(t *testing.T) {
	sup := []float64{2, 0, 1}
	dem := []float64{1, 1, 1}
	if a := texture.Availability(sup, dem); math.Abs(a-2.0/3) > 1e-12 {
		t.Errorf("availability = %v", a)
	}
	// satisfied = 2, supplied = 3 ⇒ waste = 0.5.
	if w := WasteRatio(sup, dem); math.Abs(w-0.5) > 1e-12 {
		t.Errorf("waste = %v", w)
	}
	if a := texture.Availability([]float64{0}, []float64{0}); a != 1 {
		t.Errorf("zero-demand availability = %v", a)
	}
	if w := WasteRatio([]float64{5}, []float64{0}); w < 1e8 {
		t.Errorf("all-waste ratio = %v", w)
	}
}

func tinyLibrary(t *testing.T) *texture.Library {
	t.Helper()
	lib, err := texture.Build(texture.Config{
		Grid:            geo.MustGrid(20),
		Specs:           []orbit.RepeatSpec{{P: 1, Q: 15}},
		InclinationsDeg: []float64{53},
		RAANs:           3,
		Phases:          2,
		Slots:           3,
		SlotSeconds:     900,
		SubSamples:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestILPMatchesOrBeatsGreedy(t *testing.T) {
	lib := tinyLibrary(t)
	// Build a demand the library can certainly cover: 90% of the supply of
	// a known 3-satellite placement. The optimum is therefore ≤ 3.
	seed := make([]int, lib.NumTracks())
	seed[0], seed[2] = 2, 1
	d := lib.Supply(seed)
	for k := range d {
		d[k] *= 0.9
	}
	greedy, err := core.Sparsify(core.Problem{Library: lib, Demand: d, Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	ilp, err := SolveILP(ILPConfig{
		Library: lib, Demand: d, Epsilon: 1, Budget: 3 * time.Second, MaxNodes: 200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ilp.Satellites == 0 {
		t.Fatal("ILP placed nothing")
	}
	if !ilp.Truncated {
		if ilp.Satellites > greedy.Satellites {
			t.Errorf("complete ILP (%d sats) worse than greedy (%d)", ilp.Satellites, greedy.Satellites)
		}
		if ilp.Satellites > 3 {
			t.Errorf("ILP used %d sats; a 3-satellite solution exists", ilp.Satellites)
		}
	}
	if v := core.Verify(lib, ilp.X, d); v < 1-1e-9 {
		t.Errorf("ILP availability %v below target", v)
	}
}

func TestILPTruncationFlag(t *testing.T) {
	lib := tinyLibrary(t)
	d := demand.StarlinkCustomers(demand.ScenarioOptions{
		Grid: lib.Grid, Slots: lib.Slots, SlotSeconds: lib.SlotSeconds,
		TotalSatUnits: 40,
	})
	res, err := SolveILP(ILPConfig{
		Library: lib, Demand: d.Y, Epsilon: 0.6, Budget: time.Hour, MaxNodes: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("3-node budget should truncate")
	}
}

func TestILPZeroDemand(t *testing.T) {
	lib := tinyLibrary(t)
	res, err := SolveILP(ILPConfig{
		Library: lib, Demand: make([]float64, lib.UnfoldedLen()), Epsilon: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satellites != 0 || res.Availability != 1 {
		t.Errorf("zero demand: %d sats avail %v", res.Satellites, res.Availability)
	}
}

func TestILPValidation(t *testing.T) {
	lib := tinyLibrary(t)
	if _, err := SolveILP(ILPConfig{}); err == nil {
		t.Error("nil library accepted")
	}
	if _, err := SolveILP(ILPConfig{Library: lib, Demand: []float64{1}, Epsilon: 1}); err == nil {
		t.Error("bad demand accepted")
	}
	for _, eps := range []float64{2, math.NaN()} {
		if _, err := SolveILP(ILPConfig{Library: lib, Demand: make([]float64, lib.UnfoldedLen()), Epsilon: eps}); err == nil {
			t.Errorf("epsilon %v accepted", eps)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), -1} {
		y := make([]float64, lib.UnfoldedLen())
		y[3] = bad
		if _, err := SolveILP(ILPConfig{Library: lib, Demand: y, Epsilon: 1}); err == nil {
			t.Errorf("demand %v accepted", bad)
		}
	}
}

// TestILPUncoverableDemand: demand no track covers is an error, as it is
// for core.Sparsify, not an empty incumbent. The bound it would divide by is
// 0, and ⌈+Inf⌉ as an int is left to the implementation.
func TestILPUncoverableDemand(t *testing.T) {
	lib, err := texture.Build(texture.Config{
		Grid:            geo.MustGrid(10),
		Specs:           []orbit.RepeatSpec{{P: 1, Q: 15}},
		InclinationsDeg: []float64{10},
		RAANs:           4, Phases: 2, Slots: 4, SlotSeconds: 900, SubSamples: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, lib.UnfoldedLen())
	m := lib.Grid.NumCells()
	for i := 0; i < m; i++ {
		if math.Abs(lib.Grid.Center(i).Lat) > 50 {
			for s := 0; s < lib.Slots; s++ {
				y[s*m+i] = 1
			}
		}
	}
	if res, err := SolveILP(ILPConfig{Library: lib, Demand: y, Epsilon: 0.5, Budget: time.Hour}); err == nil {
		t.Errorf("uncoverable demand: %d satellites, availability %v, %d nodes, no error", res.Satellites, res.Availability, res.Nodes)
	}
}

// TestMegaReduceShellsRejectsBadDemand: a demand that is not Slots × cells
// long, or has an entry that is not finite and ≥ 0, is an error, not a panic,
// an availability of NaN or a constellation shrunk to nothing.
func TestMegaReduceShellsRejectsBadDemand(t *testing.T) {
	cfg := SupplyConfig{Grid: geo.MustGrid(10), Slots: 4, SlotSeconds: 900, SubSamples: 1}
	shells := []Shell{{"a", WalkerConfig{53, 550, 6, 6, 1}}}
	n := cfg.Slots * cfg.Grid.NumCells()
	with := func(k int, v float64) []float64 {
		y := make([]float64, n)
		y[k] = v
		return y
	}
	for _, c := range []struct {
		name string
		y    []float64
	}{
		{"half length", make([]float64, n/2)},
		{"NaN entry", with(3, math.NaN())},
		{"negative entry", with(3, -5)},
	} {
		t.Run(c.name, func(t *testing.T) {
			var res *ShellReduceResult
			var err error
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("panic: %v", p)
					}
				}()
				res, err = MegaReduceShells(ShellReduceConfig{Supply: cfg, Demand: c.y, Epsilon: 0.5, Shells: shells})
			}()
			if err == nil {
				t.Errorf("no error: %d satellites, availability %v", res.Satellites, res.Availability)
			}
		})
	}
}

func TestMegaReduceShellsShrinksWithSlack(t *testing.T) {
	cfg := SupplyConfig{Grid: geo.MustGrid(10), Slots: 4, SlotSeconds: 900, SubSamples: 1}
	cfg.fillDefaults()
	shells := []Shell{
		{"a", WalkerConfig{53, 550, 6, 6, 1}},
		{"b", WalkerConfig{85, 560, 3, 4, 1}},
	}
	dem := demand.StarlinkCustomers(demand.ScenarioOptions{
		Grid: cfg.Grid, Slots: cfg.Slots, SlotSeconds: cfg.SlotSeconds, TotalSatUnits: 10,
	})
	// Calibrate demand to the shells, then leave generous slack.
	sup := Supply(cfg, ShellSatellites(shells))
	dem.CalibrateToSupply(sup, 0.8)
	dem.Scale(0.5)
	res, err := MegaReduceShells(ShellReduceConfig{
		Supply: cfg, Demand: dem.Y, Epsilon: 0.8, Shells: shells,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := 6*6 + 3*4
	if res.Satellites >= start {
		t.Errorf("no shrink: %d of %d", res.Satellites, start)
	}
	if res.Satellites != len(res.Remaining) {
		t.Errorf("remaining inconsistent: %d vs %d", res.Satellites, len(res.Remaining))
	}
	if res.Availability < 0.8 {
		t.Errorf("availability %v below target", res.Availability)
	}
	sum := 0
	for _, n := range res.PerShell {
		sum += n
	}
	if sum != res.Satellites {
		t.Errorf("per-shell sum %d != %d", sum, res.Satellites)
	}
	// Independent availability check of the surviving constellation.
	if a := texture.Availability(Supply(cfg, res.Remaining), dem.Y); a < 0.8-1e-9 {
		t.Errorf("independent availability %v below target", a)
	}
}

// MegaReduceShells gives the same result on every run. It used to sum a
// move's effect in map order, so the last bits of a candidate's satisfied
// demand, and with them a tie between planes, could change from run to run.
// Shell "a2" repeats "a", so each of its planes ties exactly with one of a's.
func TestMegaReduceShellsIsDeterministic(t *testing.T) {
	cfg := SupplyConfig{Grid: geo.MustGrid(10), Slots: 4, SlotSeconds: 900, SubSamples: 3}
	cfg.fillDefaults()
	shells := []Shell{
		{"a", WalkerConfig{53, 550, 6, 6, 1}},
		{"b", WalkerConfig{85, 560, 3, 4, 1}},
		{"a2", WalkerConfig{53, 550, 6, 6, 1}},
	}
	sup := Supply(cfg, ShellSatellites(shells))
	y := make([]float64, len(sup))
	for i := range y {
		y[i] = 0.6 * sup[i]
	}
	run := func() *ShellReduceResult {
		res, err := MegaReduceShells(ShellReduceConfig{Supply: cfg, Demand: y, Epsilon: 0.9, Shells: shells})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	if first.Steps == 0 {
		t.Fatal("no move accepted: the test needs some")
	}
	for i := 1; i < 5; i++ {
		got := run()
		if got.Satellites != first.Satellites || got.Steps != first.Steps || got.EntriesVisited != first.EntriesVisited ||
			math.Float64bits(got.Availability) != math.Float64bits(first.Availability) ||
			!slices.Equal(got.PerShell, first.PerShell) {
			t.Fatalf("run %d: %d satellites %v after %d steps at availability %v; run 0: %d %v after %d at %v",
				i, got.Satellites, got.PerShell, got.Steps, got.Availability,
				first.Satellites, first.PerShell, first.Steps, first.Availability)
		}
	}
}

func TestMegaReduceShellsInfeasibleStart(t *testing.T) {
	cfg := SupplyConfig{Grid: geo.MustGrid(20), Slots: 2, SlotSeconds: 900, SubSamples: 1}
	cfg.fillDefaults()
	dem := demand.StarlinkCustomers(demand.ScenarioOptions{
		Grid: cfg.Grid, Slots: cfg.Slots, SlotSeconds: cfg.SlotSeconds, TotalSatUnits: 1e5,
	})
	_, err := MegaReduceShells(ShellReduceConfig{
		Supply: cfg, Demand: dem.Y, Epsilon: 0.99,
		Shells: []Shell{{"a", WalkerConfig{53, 550, 2, 2, 1}}},
	})
	if err == nil {
		t.Error("infeasible start accepted")
	}
	if _, err := MegaReduceShells(ShellReduceConfig{
		Supply: cfg, Demand: dem.Y, Epsilon: math.NaN(),
		Shells: []Shell{{"a", WalkerConfig{53, 550, 2, 2, 1}}},
	}); err == nil {
		t.Error("epsilon NaN accepted")
	}
}

// supplyBytes is a supply vector's exact content.
func supplyBytes(v []float64) []byte {
	b := make([]byte, 0, 8*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// Regression for Supply depending on goroutine scheduling: it used to add
// each satellite's coverage into the result as that satellite's goroutine
// finished, so with SubSamples > 1 — fractional shares, whose sums depend on
// their order — two runs on the same inputs disagreed in the last bits. The
// satellites are now added in index order whatever the worker count.
func TestSupplyIsDeterministic(t *testing.T) {
	cfg := SupplyConfig{Grid: geo.MustGrid(10), Slots: 6, SlotSeconds: 900, SubSamples: 3, Parallelism: 4}
	sats := WalkerConfig{53, 1200, 16, 16, 1}.Satellites()
	first := supplyBytes(Supply(cfg, sats))
	for run := 1; run < 5; run++ {
		cfg.Parallelism = 1 + run%4
		if got := supplyBytes(Supply(cfg, sats)); !bytes.Equal(got, first) {
			t.Fatalf("run %d (%d workers) computed a different supply", run, cfg.Parallelism)
		}
	}
	// The per-satellite rows MegaReduceShells caches are the same numbers,
	// in either supply semantics.
	cfg.fillDefaults()
	for _, count := range []bool{false, true} {
		cfg.CountSatellites = count
		want := supplyBytes(Supply(cfg, sats))
		rows, table, err := perSatSupplyRows(cfg, sats)
		if err != nil {
			t.Fatal(err)
		}
		sum := make([]float64, len(first)/8)
		for _, r := range rows {
			texture.AddRow(sum, r, table, 1)
		}
		if !bytes.Equal(supplyBytes(sum), want) {
			t.Errorf("CountSatellites %v: per-satellite rows do not add up to Supply, bit for bit", count)
		}
	}
}
