package texture

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/geo"
	"repro/internal/orbit"
)

// csrHash hashes the library's matrix as flat CSR: the running row ends, then
// the column indices, then the bits of the values, each as little-endian
// uint64.
func csrHash(lib *Library) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	ptr := 0
	put(0)
	for j := range lib.Tracks {
		ptr += lib.TrackNNZ(j)
		put(uint64(ptr))
	}
	for j := range lib.Tracks {
		eachEntry(lib, j, func(k int, _ float64) { put(uint64(k)) })
	}
	for j := range lib.Tracks {
		eachEntry(lib, j, func(_ int, v float64) { put(math.Float64bits(v)) })
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildGoldenCSR pins the build's output bit for bit. The hash was
// recorded from the map-and-sort build that preceded the rasterizer (commit
// 7fe4e5f) on this configuration, whose 85° tracks reach the polar rows and
// whose three sub-samples give fractional values.
func TestBuildGoldenCSR(t *testing.T) {
	cfg := smallConfig()
	cfg.SubSamples = 3
	const wantNNZ, want = 5616, "6b0ee3ba1eefe5ff144a9b3ef7b377c405d8c23338ffc1eb549a27f4d43980a4"
	for _, workers := range []int{1, 3} {
		cfg.Parallelism = workers
		lib, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := csrHash(lib); lib.NNZ() != wantNNZ || got != want {
			t.Errorf("%d workers: nnz %d, hash %s; want %d, %s", workers, lib.NNZ(), got, wantNNZ, want)
		}
	}
}

// midConfig is large enough (672 tracks, ~120 k entries) for the build's
// fixed costs to vanish next to its rows.
func midConfig() Config {
	return Config{
		Grid:  geo.MustGrid(10),
		Specs: orbit.EnumerateRepeatSpecs(2, 423e3, 1873e3),
		RAANs: 6, Phases: 2, Slots: 12, SubSamples: 3,
	}
}

// TestBuildGoldenMid pins the build at midConfig, whose 672 tracks put
// footprints across the antimeridian and over both poles. The hash was
// recorded from the build that copied every row twice (commit 835f84b),
// before the matrix became views of the workers' batch arrays.
func TestBuildGoldenMid(t *testing.T) {
	const wantNNZ, want = 189336, "eefa0aac12fdaec8b12aa22988eedde1b18b8f9758837df5381e05cb9b941b55"
	for _, workers := range []int{1, 3} {
		cfg := midConfig()
		cfg.Parallelism = workers
		lib, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := csrHash(lib); lib.NNZ() != wantNNZ || got != want {
			t.Errorf("%d workers: nnz %d, hash %s; want %d, %s", workers, lib.NNZ(), got, wantNNZ, want)
		}
	}
}

// TestBuildAllocationCeiling keeps the build's garbage from creeping back: a
// build may allocate at most 1.25× what the library holds — its class rows,
// held once, in arrays the allocator rounds up, its views and its track list
// — the rest being each worker's scratch, a few rows, and its rasterizer, in
// at most one allocation per four tracks. A second copy of the rows, however
// short-lived, does not fit.
func TestBuildAllocationCeiling(t *testing.T) {
	cfg := midConfig()
	cfg.Parallelism = 2
	if _, err := Build(cfg); err != nil { // fills the grid's lazy tables
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lib, err := Build(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	held := uint64(lib.StoredBytes()) + uint64(lib.NumTracks())*uint64(unsafe.Sizeof(Track{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > held*5/4 {
		t.Errorf("Build allocated %d B for a %d B library (%.2f×), ceiling 1.25×", got, held, float64(got)/float64(held))
	} else {
		t.Logf("Build allocated %d B for a %d B library (%.2f×), %d mallocs", got, held, float64(got)/float64(held), after.Mallocs-before.Mallocs)
	}
	if got := after.Mallocs - before.Mallocs; got > uint64(lib.NumTracks()/4) {
		t.Errorf("Build made %d allocations for %d tracks, ceiling one per four tracks", got, lib.NumTracks())
	}
}

// loopPlanConfig is the bench/ ledger's loop-plan library: a 6° grid, 24
// slots, 12 RAANs and 4 phases, 2,688 tracks covering 4.27 M (track, slot,
// cell) triples.
func loopPlanConfig() Config {
	return Config{
		Grid: geo.MustGrid(6), Slots: 24, RAANs: 12, Phases: 4,
		Specs: orbit.EnumerateRepeatSpecs(2, 423e3, 1873e3),
	}
}

// TestLoopPlanClassRows pins the library's work at the loop-plan sizing: 60
// columns and 12 RAANs make every (spec, inclination, phase) one class of 12
// tracks, so 2,688 tracks and 4,268,160 entries are 224 stored rows of
// 355,680 entries.
func TestLoopPlanClassRows(t *testing.T) {
	lib, err := Build(loopPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	if lib.NumTracks() != 2688 || lib.NNZ() != 4268160 || lib.StoredRows() != 224 || lib.StoredEntries() != 355680 {
		t.Errorf("%d tracks, %d entries, %d stored rows of %d entries; want 2,688, 4,268,160, 224 and 355,680",
			lib.NumTracks(), lib.NNZ(), lib.StoredRows(), lib.StoredEntries())
	}
}

// TestLoopPlanBytesPerColumn: at the loop-plan sizing the library holds at
// most 0.273 B per covered (track, slot, cell), class rows, segments, views
// and value table included.
func TestLoopPlanBytesPerColumn(t *testing.T) {
	lib, err := Build(loopPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	if lib.NNZ() != 4268160 {
		t.Fatalf("%d entries, the ledger's loop-plan has 4,268,160", lib.NNZ())
	}
	per := float64(lib.StoredBytes()) / float64(lib.NNZ())
	if per > 0.273 {
		t.Errorf("%d B stored for %d entries: %.4f B a column, ceiling 0.273", lib.StoredBytes(), lib.NNZ(), per)
	}
	t.Logf("%d B stored for %d entries: %.4f B a column", lib.StoredBytes(), lib.NNZ(), per)
}

// TestBuildRejectsLayoutOverflow: the layout's two limits fail the build
// instead of wrapping onto another value. An entry counts at most
// MaxSubSamples hits; a segment's base total·S − 1 must fit 20 bits, which a
// horizon-wide footprint on a 0.5° grid passes at 16 sub-samples but not at
// 4.
func TestBuildRejectsLayoutOverflow(t *testing.T) {
	cfg := Config{
		Grid:            geo.MustGrid(0.5),
		Specs:           []orbit.RepeatSpec{{P: 1, Q: 12}},
		InclinationsDeg: []float64{53},
		RAANs:           1, Phases: 1, Slots: 1, SubSamples: 4,
		Coverage: orbit.CoverageParams{MinElevation: 1e-3}, // a horizon-wide footprint
	}
	lib, err := Build(cfg)
	if err != nil {
		t.Fatalf("%d sub-samples: %v", cfg.SubSamples, err)
	}
	if top := len(lib.Fractions()) - 1 - MaxSubSamples; top < MaxBase/16 {
		t.Fatalf("largest base %d at %d sub-samples: footprint too small to pass 20 bits at 16", top, cfg.SubSamples)
	}
	cfg.SubSamples = MaxSubSamples // bases grow with the square of the sub-samples
	if lib, err := Build(cfg); err == nil || !strings.Contains(err.Error(), "20 bits") {
		t.Fatalf("%d sub-samples: Build = %v, %v; want a 20-bit base overflow error", cfg.SubSamples, lib, err)
	}
	cfg.SubSamples = MaxSubSamples + 1
	if lib, err := Build(cfg); err == nil || !strings.Contains(err.Error(), "4-bit") {
		t.Fatalf("%d sub-samples: Build = %v, %v; want a 4-bit hits overflow error", cfg.SubSamples, lib, err)
	}
}

// TestTrackRowViewsAreCapped: class rows that share a worker's batch arrays
// are filed with no spare capacity, so an append to one reallocates and
// cannot write into the next.
func TestTrackRowViewsAreCapped(t *testing.T) {
	cfg := smallConfig()
	cfg.Parallelism = 1 // every row in as few batch arrays as possible
	lib, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := csrHash(lib)
	for i, row := range lib.rows {
		if cap(row.segs) != len(row.segs) || cap(row.rows) != len(row.rows) || cap(row.ents) != len(row.ents) {
			t.Errorf("class row %d: segments len %d cap %d, grid rows len %d cap %d, entries len %d cap %d",
				i, len(row.segs), cap(row.segs), len(row.rows), cap(row.rows), len(row.ents), cap(row.ents))
		}
		_ = append(row.segs, classSeg{})
		_ = append(row.rows, rowSpan{})
		_ = append(row.ents, newEntry(1, 1))
	}
	if csrHash(lib) != before {
		t.Error("appending to class rows changed the library")
	}
}

// TestCheckRowsPanics: the build's row validation rejects every malformed
// class row and counts the entries of well-formed ones.
func TestCheckRowsPanics(t *testing.T) {
	e := newEntry
	const table = 2 + MaxSubSamples // base 1's window, for 2 sub-samples
	const lonCols = 6               // columns a grid row
	seg := func(col, n int) Segment { return newSegment(col, 1, n) }
	// row is a class row of segments segs over ents, its grid rows spanned
	// as the build spans them.
	row := func(segs []Segment, ents ...Entry) classRow {
		r := classRow{segs: make([]classSeg, len(segs)), ents: ents}
		for i, sg := range segs {
			r.segs[i].Segment = sg
		}
		r.rows = r.spanGridRows(lonCols, nil)
		return r
	}
	check := func(name string, r classRow, cols int) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		checkClassRows([]classRow{r}, cols, lonCols, 2, table)
	}
	one := func() classRow { return row([]Segment{seg(1, 1)}, e(0, 1)) }
	two := func() classRow { return row([]Segment{seg(1, 2)}, e(0, 1), e(1, 1)) }
	r := one()
	check("segment without entries", classRow{segs: r.segs, rows: r.rows}, 24)
	r = two()
	check("segment past the entries", classRow{segs: r.segs, rows: r.rows, ents: r.ents[:1]}, 24)
	r = one()
	check("entries past the segments", classRow{segs: r.segs, rows: r.rows, ents: []Entry{e(0, 1), e(1, 1)}}, 24)
	check("grid rows past the segments", classRow{segs: r.segs, rows: append(r.rows, r.rows...), ents: r.ents}, 24)
	check("opening gap", row([]Segment{seg(0, 1)}, e(1, 1)), 24)
	check("dup col", row([]Segment{seg(1, 2)}, e(0, 1), e(0, 1)), 24)
	check("segment not past the last", row([]Segment{seg(0, 2), seg(1, 1)}, e(0, 1), e(1, 1), e(0, 1)), 24)
	check("segment in the last one's grid row", row([]Segment{seg(0, 1), seg(2, 1)}, e(0, 1), e(0, 1)), 24)
	check("col range", row([]Segment{seg(25, 1)}, e(0, 1)), 24)
	check("negative col", row([]Segment{seg(-1, 1)}, e(0, 1)), 24)
	check("gap past the end", row([]Segment{seg(0, 2)}, e(0, 1), e(2, 1)), 2)
	r = row([]Segment{seg(1, 2)}, e(0, 1), e(6, 1))
	r.segs[0].rows, r.rows = 1, []rowSpan{{n: 2, first: 1, last: 1}}
	check("grid row crossed", r, 24)
	r = one()
	r.rows[0].first = 2
	check("first column not recorded", r, 24)
	r = two()
	r.rows[0].last = 3
	check("last column not recorded", r, 24)
	r = one()
	r.segs[0].hi = 4
	check("segment's columns not recorded", r, 24)
	r = one()
	r.segs[0].rot = lonCols
	check("turned past the grid row", r, 24)
	check("hits past the sub-samples", row([]Segment{seg(0, 1)}, e(0, 3)), 24)
	check("base past the table", row([]Segment{newSegment(0, 2, 1)}, e(0, 1)), 24)
	// Rows 0 and 2 hold two and three entries, row 2 in two segments, the
	// first of which spans two grid rows, the second far out.
	good := []classRow{
		row([]Segment{seg(0, 2)}, e(0, 1), e(2, 2)),
		{},
		row([]Segment{seg(1, 2), seg(9000, 1)}, e(0, 1), e(7, 2), e(0, 2)),
	}
	if nnz := checkClassRows(good, 1<<17, lonCols, 2, table); nnz != 5 {
		t.Errorf("nnz = %d, want 5", nnz)
	}
}

// TestBuildSplitsWideGaps: on a 0.5° grid a grid row is 720 cells, so the
// footprints of one slot's two sub-samples, some 27° apart along the track,
// leave a gap wider than an entry's 12 bits between them. A second segment of
// the slot carries it: NNZ and TrackNNZ count the rasterizer's cells, and
// Supply is bit for bit its recount.
func TestBuildSplitsWideGaps(t *testing.T) {
	cfg := Config{
		Grid:            geo.MustGrid(0.5),
		Specs:           []orbit.RepeatSpec{{P: 1, Q: 15}},
		InclinationsDeg: []float64{53},
		RAANs:           2, Phases: 1, Slots: 3, SubSamples: 2,
	}
	lib, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := lib.Grid.NumCells()
	splits, trackNNZ := 0, 0
	for j := range lib.Tracks {
		segs := lib.rows[lib.views[j].row].segs
		for i := 1; i < len(segs); i++ {
			if int(segs[i].Col)/m == int(segs[i-1].Col)/m {
				splits++
			}
		}
		trackNNZ += lib.TrackNNZ(j)
	}
	if splits == 0 {
		t.Fatal("no slot needed a second segment: the grid is not fine enough to test them")
	}
	x := make([]int, lib.NumTracks())
	for j := range x {
		x[j] = j + 1
	}
	want, nnz := recount(lib, cfg.SubSamples, x)
	if lib.NNZ() != nnz || trackNNZ != nnz {
		t.Errorf("NNZ %d, TrackNNZ summing to %d, with %d split slots; the rasterizer counts %d entries", lib.NNZ(), trackNNZ, splits, nnz)
	}
	got := lib.Supply(x)
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("supply[%d] = %v, recount %v", k, got[k], want[k])
		}
	}
}

// eachRowEntry calls f with each column of row, in ascending order, and its
// value read from table.
func eachRowEntry(row Row, table []float64, f func(k int, v float64)) {
	ents := row.Entries
	for _, sg := range row.Segs {
		k, vals, n := int(sg.Col), sg.Values(table), sg.Len()
		for _, e := range ents[:n] {
			k += e.Gap()
			f(k, vals.Of(e))
		}
		ents = ents[n:]
	}
}

// TestClassRowsMatchRasterizer: every track's view decodes, entry for entry
// and in order, to the columns and value bits that AppendRow gives on the
// track's own elements, as if the track had a row of its own, though each
// slot of a class row was rasterized as whichever track of the class Build
// chose. It runs on the unit-test libraries, the loop-plan sizing, a 4° grid
// with the Paper scale's 36 RAANs (classes of 18), 7 RAANs on a 10° grid (no
// class holds two tracks), a 0.5° grid whose slots take several segments,
// and a filter that removes each class's first track, so a later one leads
// it.
func TestClassRowsMatchRasterizer(t *testing.T) {
	paperInc := []float64{20, 30, 43, 53, 60, 70, 85, 97.6, -30, -53, -70, -85}
	fine := Config{
		Grid: geo.MustGrid(4), Specs: orbit.EnumerateRepeatSpecs(2, 423e3, 1873e3),
		InclinationsDeg: paperInc, RAANs: 36, Phases: 2, Slots: 4, SubSamples: 3,
	}
	seven := smallConfig()
	seven.RAANs = 7
	// A class of fine's keeps every other RAAN index: indices 0 and 1 lead
	// its two classes until the filter removes them.
	leaderless := fine
	leaderless.Occupied = func(_ orbit.RepeatSpec, _, raanDeg float64) bool { return raanDeg < -180+2*360.0/36 }
	midless := midConfig()
	midless.Occupied = func(_ orbit.RepeatSpec, _, raanDeg float64) bool { return raanDeg == -180 }
	// On a 0.5° grid a slot's cells pass what one segment holds, so its
	// segments split between grid rows.
	half := Config{
		Grid: geo.MustGrid(0.5), Specs: []orbit.RepeatSpec{{P: 1, Q: 15}}, InclinationsDeg: []float64{53, -70},
		RAANs: 8, Phases: 1, Slots: 3, SubSamples: 2,
	}
	for _, tc := range []struct {
		name        string
		cfg         Config
		rows, class int  // stored rows, and the tracks each class holds
		split       bool // whether a slot takes several segments
	}{
		{"small", smallConfig(), 8, 4, false},
		{"mid", midConfig(), 112, 6, false},
		{"loop-plan", loopPlanConfig(), 224, 12, false},
		{"4° × 36 RAANs", fine, 7 * 12 * 2 * 2, 18, false},
		{"7 RAANs", seven, 2 * 2 * 7 * 2, 1, false},
		{"first of each class removed, 36 RAANs", leaderless, 7 * 12 * 2 * 2, 17, false},
		{"first of each class removed, mid", midless, 112, 5, false},
		{"0.5° grid", half, 2, 8, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lib, err := Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if lib.StoredRows() != tc.rows || lib.NumTracks() != tc.class*tc.rows {
				t.Errorf("%d tracks in %d stored rows; want %d rows of %d tracks", lib.NumTracks(), lib.StoredRows(), tc.rows, tc.class)
			}
			segs, turned := 0, 0
			for _, row := range lib.rows {
				segs = max(segs, len(row.segs))
				for _, sg := range row.segs {
					if sg.rot != 0 {
						turned++
					}
				}
			}
			if split := segs > lib.Slots; split != tc.split {
				t.Errorf("a class row of %d segments over %d slots; want slots split %v", segs, lib.Slots, tc.split)
			}
			if (turned > 0) != (tc.class > 1) {
				t.Errorf("%d segments rasterized as a later track of their class, in classes of %d", turned, tc.class)
			}
			cfg := tc.cfg
			cfg.fillDefaults()
			offsets := make([]float64, cfg.SubSamples)
			for i := range offsets {
				offsets[i] = float64(i) / float64(len(offsets))
			}
			ras := NewRasterizer(lib.Grid, lib.SlotSeconds, offsets)
			shifted := 0
			for j, tr := range lib.Tracks {
				own, _ := AppendRow(Row{}, ras, tr.Elements, lib.Coverage.FootprintRadius(tr.Elements.Altitude()), lib.Slots)
				var got, want [][2]uint64
				eachEntry(lib, j, func(k int, v float64) { got = append(got, [2]uint64{uint64(k), math.Float64bits(v)}) })
				eachRowEntry(own, lib.Fractions(), func(k int, v float64) { want = append(want, [2]uint64{uint64(k), math.Float64bits(v)}) })
				if !slices.Equal(got, want) {
					t.Fatalf("track %d (shift %d): %d entries through its view differ from the rasterizer's %d",
						j, lib.views[j].shift, len(got), len(want))
				}
				if lib.views[j].shift != 0 {
					shifted++
				}
			}
			if want := lib.NumTracks() - lib.StoredRows(); shifted != want {
				t.Errorf("%d tracks read a shifted row, want %d", shifted, want)
			}
		})
	}
}

// TestRowsRoundTripTheRasterizer: decoding every row gives back, column for
// column and bit for bit, the (slot·m + cell, hits/total) pairs a fresh
// Rasterizer produces for the track — on the 10° and 6° grids, on the 0.5°
// grid whose slots split into several segments, and at 1, 2, 3 and 8
// sub-samples.
func TestRowsRoundTripTheRasterizer(t *testing.T) {
	type pair struct {
		k int
		v uint64
	}
	for _, deg := range []float64{10, 6, 0.5} {
		for _, sub := range []int{1, 2, 3, 8} {
			cfg := Config{
				Grid:            geo.MustGrid(deg),
				Specs:           []orbit.RepeatSpec{{P: 1, Q: 15}, {P: 1, Q: 12}},
				InclinationsDeg: []float64{53, 85},
				RAANs:           2, Phases: 2, Slots: 6, SubSamples: sub,
			}
			if deg < 1 {
				cfg.Specs, cfg.InclinationsDeg, cfg.Phases, cfg.Slots = cfg.Specs[:1], cfg.InclinationsDeg[:1], 1, 3
			}
			lib, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			offsets := make([]float64, sub)
			for i := range offsets {
				offsets[i] = float64(i) / float64(sub)
			}
			ras := NewRasterizer(lib.Grid, lib.SlotSeconds, offsets)
			m := lib.Grid.NumCells()
			for j, tr := range lib.Tracks {
				var got, want []pair
				eachEntry(lib, j, func(k int, v float64) { got = append(got, pair{k, math.Float64bits(v)}) })
				lam := lib.Coverage.FootprintRadius(tr.Elements.Altitude())
				for s := 0; s < lib.Slots; s++ {
					cells, total := ras.Slot(tr.Elements, lam, s)
					for _, c := range cells {
						want = append(want, pair{s*m + int(c), math.Float64bits(float64(ras.Hits(c)) / float64(total))})
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%v° grid, %d sub-samples, track %d: %d decoded entries differ from the rasterizer's %d",
						deg, sub, j, len(got), len(want))
				}
			}
		}
	}
}

// recount is Supply recomputed densely from a fresh Rasterizer, each fraction
// computed in place as hits/total, together with the number of (slot, cell)
// pairs the placed tracks cover.
func recount(lib *Library, subSamples int, x []int) ([]float64, int) {
	offsets := make([]float64, subSamples)
	for i := range offsets {
		offsets[i] = float64(i) / float64(subSamples)
	}
	ras := NewRasterizer(lib.Grid, lib.SlotSeconds, offsets)
	m := lib.Grid.NumCells()
	out, nnz := make([]float64, lib.UnfoldedLen()), 0
	for j, n := range x {
		if n == 0 {
			continue
		}
		el := lib.Tracks[j].Elements
		lam := lib.Coverage.FootprintRadius(el.Altitude())
		for s := 0; s < lib.Slots; s++ {
			cells, total := ras.Slot(el, lam, s)
			for _, c := range cells {
				out[s*m+int(c)] += float64(n) * (float64(ras.Hits(c)) / float64(total))
			}
			nnz += len(cells)
		}
	}
	return out, nnz
}

var supplySink []float64

// BenchmarkLibrarySupply is Library.Supply at midConfig with one satellite on
// every track: one pass over all the library's entries through the fraction
// table, the product core.Verify and the sparsifier's pruning start from.
func BenchmarkLibrarySupply(b *testing.B) {
	lib, err := Build(midConfig())
	if err != nil {
		b.Fatal(err)
	}
	x := make([]int, lib.NumTracks())
	for j := range x {
		x[j] = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		supplySink = lib.Supply(x)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(lib.NNZ()), "ns/nnz")
}

func BenchmarkBuild(b *testing.B) {
	cfg := midConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lib, err := Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(lib.NNZ()), "nnz")
	}
}
