package texture

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/orbit"
)

// smallConfig is a fast library for unit tests: coarse grid, few candidates,
// short horizon.
func smallConfig() Config {
	return Config{
		Grid:            geo.MustGrid(10),
		Specs:           []orbit.RepeatSpec{{P: 1, Q: 15}, {P: 1, Q: 13}},
		InclinationsDeg: []float64{53, 85},
		RAANs:           4,
		Phases:          2,
		Slots:           8,
		SlotSeconds:     900,
		SubSamples:      2,
	}
}

// eachEntry calls f with each column track j covers, in ascending order,
// and its value: a scan of the track's row as Row describes it.
func eachEntry(lib *Library, j int, f func(k int, v float64)) {
	row, fracs := lib.TrackRow(j), lib.Fractions()
	ents := row.Entries
	for _, sg := range row.Segs {
		k, vals, n := int(sg.Col), sg.Values(fracs), sg.Len()
		for _, e := range ents[:n] {
			k += e.Gap()
			f(k, vals.Of(e))
		}
		ents = ents[n:]
	}
}

func TestBuildEnumeratesExpectedCount(t *testing.T) {
	lib, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 2 * 4 * 2 // specs × inclinations × RAANs × phases
	if lib.NumTracks() != want {
		t.Errorf("tracks = %d, want %d", lib.NumTracks(), want)
	}
	if lib.UnfoldedLen() != 8*lib.Grid.NumCells() {
		t.Errorf("unfolded len = %d", lib.UnfoldedLen())
	}
}

func TestBuildOccupiedFilter(t *testing.T) {
	cfg := smallConfig()
	cfg.Occupied = func(spec orbit.RepeatSpec, incDeg, raanDeg float64) bool {
		return spec.Q == 15 // exclude the whole q=15 family
	}
	lib, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range lib.Tracks {
		if tr.Spec.Q == 15 {
			t.Fatal("occupied track not filtered")
		}
	}
	cfg.Occupied = func(orbit.RepeatSpec, float64, float64) bool { return true }
	if _, err := Build(cfg); err == nil {
		t.Error("all-filtered library should error")
	}
}

func TestCoverageValuesAreFractions(t *testing.T) {
	lib, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < lib.NumTracks(); j++ {
		eachEntry(lib, j, func(k int, frac float64) {
			if frac <= 0 || frac > 1+1e-12 {
				t.Fatalf("track %d idx %d frac %v", j, k, frac)
			}
		})
	}
}

func TestCoverageMatchesGeometry(t *testing.T) {
	// Every full-coverage entry (frac == 1) must indeed be covered at the
	// slot's sampled instants per the orbit geometry.
	cfg := smallConfig()
	cfg.SubSamples = 1 // entries are then exactly instantaneous coverage
	lib, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := 3
	el := lib.Tracks[j].Elements
	cov := lib.Coverage
	m := lib.Grid.NumCells()
	eachEntry(lib, j, func(k int, _ float64) {
		slot, cell := k/m, k%m
		tt := float64(slot) * cfg.SlotSeconds
		if !cov.Covers(el, tt, lib.Grid.Center(cell)) {
			t.Fatalf("slot %d cell %d claimed covered but geometry disagrees", slot, cell)
		}
	})
	if lib.TrackNNZ(j) == 0 {
		t.Fatal("track has empty coverage")
	}
}

func TestEveryTrackCoversSomething(t *testing.T) {
	lib, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < lib.NumTracks(); j++ {
		if lib.TrackNNZ(j) == 0 {
			t.Errorf("track %d covers nothing", j)
		}
	}
}

func TestSupplyLinearInX(t *testing.T) {
	lib, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	x1 := make([]int, lib.NumTracks())
	x1[0] = 1
	x3 := make([]int, lib.NumTracks())
	x3[0] = 3
	s1 := lib.Supply(x1)
	s3 := lib.Supply(x3)
	for k := range s1 {
		if math.Abs(s3[k]-3*s1[k]) > 1e-12 {
			t.Fatalf("supply not linear at %d: %v vs %v", k, s3[k], s1[k])
		}
	}
}

func TestSupplyAdditive(t *testing.T) {
	lib, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	xa := make([]int, lib.NumTracks())
	xb := make([]int, lib.NumTracks())
	xa[1], xb[5] = 2, 1
	sa, sb := lib.Supply(xa), lib.Supply(xb)
	xc := make([]int, lib.NumTracks())
	xc[1], xc[5] = 2, 1
	sc := lib.Supply(xc)
	for k := range sc {
		if math.Abs(sc[k]-sa[k]-sb[k]) > 1e-12 {
			t.Fatalf("supply not additive at %d", k)
		}
	}
}

// TestSupplyMatchesRasterizerRecount: Supply read through the value codes is,
// bit for bit, a dense recount of every placed track's slots from its own
// Rasterizer with each fraction computed in place as hits/total.
func TestSupplyMatchesRasterizerRecount(t *testing.T) {
	cfg := midConfig()
	lib, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]int, lib.NumTracks())
	for j := range x {
		x[j] = j % 4
	}
	got := lib.Supply(x)

	offsets := make([]float64, cfg.SubSamples)
	for i := range offsets {
		offsets[i] = float64(i) / float64(cfg.SubSamples)
	}
	ras := NewRasterizer(lib.Grid, lib.SlotSeconds, offsets)
	m := lib.Grid.NumCells()
	want := make([]float64, lib.UnfoldedLen())
	for j, n := range x {
		if n == 0 {
			continue
		}
		el := lib.Tracks[j].Elements
		lam := lib.Coverage.FootprintRadius(el.Altitude())
		for s := 0; s < lib.Slots; s++ {
			cells, total := ras.Slot(el, lam, s)
			for _, c := range cells {
				want[s*m+c] += float64(n) * (float64(ras.Hits(c)) / float64(total))
			}
		}
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("supply[%d] = %v, recount %v", k, got[k], want[k])
		}
	}
}

func TestStats(t *testing.T) {
	lib, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := lib.Stats()
	if s.NumTracks != lib.NumTracks() || s.NumSpecs != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.MinAltKm < 400 || s.MaxAltKm > 1900 || s.MinAltKm > s.MaxAltKm {
		t.Errorf("altitudes = %v..%v", s.MinAltKm, s.MaxAltKm)
	}
	if s.MinPeriodMin < 90 || s.MaxPeriodMin > 130 {
		t.Errorf("periods = %v..%v", s.MinPeriodMin, s.MaxPeriodMin)
	}
	if s.CoverageEntriesTotal != lib.NNZ() {
		t.Error("nnz mismatch")
	}
}

func TestDefaultsApplied(t *testing.T) {
	// A zero config (plus a coarse grid for speed) must fill defaults and
	// produce the paper's altitude band.
	lib, err := Build(Config{Grid: geo.MustGrid(20), RAANs: 2, Phases: 1, Slots: 2, SubSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lib.SlotSeconds != 900 {
		t.Errorf("default slot seconds = %v", lib.SlotSeconds)
	}
	st := lib.Stats()
	if st.MinAltKm < 420 || st.MaxAltKm > 1880 {
		t.Errorf("default band = %v..%v km", st.MinAltKm, st.MaxAltKm)
	}
}

func TestTrackParamAccessors(t *testing.T) {
	lib, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := lib.Tracks[0]
	if tr.InclinationDeg() != 53 {
		t.Errorf("inc = %v", tr.InclinationDeg())
	}
	if tr.RAANDeg() < -180 || tr.RAANDeg() >= 180 {
		t.Errorf("raan = %v", tr.RAANDeg())
	}
	if tr.PhaseDeg() < 0 || tr.PhaseDeg() >= 360 {
		t.Errorf("phase = %v", tr.PhaseDeg())
	}
}
