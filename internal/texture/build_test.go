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

// rowBytes is what the library's rows hold: 2 B an entry, 8 B a segment, two
// slice headers a track, and the value table.
func rowBytes(lib *Library) uint64 {
	n := uint64(2*lib.NNZ() + 8*len(lib.Fractions()))
	for j := range lib.Tracks {
		n += 8*uint64(len(lib.TrackRow(j).Segs)) + 2*uint64(unsafe.Sizeof([]Entry(nil)))
	}
	return n
}

// TestBuildAllocationCeiling keeps the build's garbage from creeping back: a
// build may allocate at most 1.25× what the library holds — its rows, held
// once, in arrays the allocator rounds up, and its track list — the rest
// being each worker's scratch, a couple of dozen rows, and its rasterizer, in
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
	held := rowBytes(lib) + uint64(lib.NumTracks())*uint64(unsafe.Sizeof(Track{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > held*5/4 {
		t.Errorf("Build allocated %d B for a %d B library (%.2f×), ceiling 1.25×", got, held, float64(got)/float64(held))
	}
	if got := after.Mallocs - before.Mallocs; got > uint64(lib.NumTracks()/4) {
		t.Errorf("Build made %d allocations for %d tracks, ceiling one per four tracks", got, lib.NumTracks())
	}
}

// TestLoopPlanBytesPerColumn: at the bench/ ledger's loop-plan sizing (a 6°
// grid, 24 slots, 2,688 tracks, 4.27 M entries) the rows hold at most 2.2 B
// per covered column, segments, row headers and value table included.
func TestLoopPlanBytesPerColumn(t *testing.T) {
	lib, err := Build(Config{
		Grid: geo.MustGrid(6), Slots: 24, RAANs: 12, Phases: 4,
		Specs: orbit.EnumerateRepeatSpecs(2, 423e3, 1873e3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if lib.NNZ() != 4268160 {
		t.Fatalf("%d entries, the ledger's loop-plan has 4,268,160", lib.NNZ())
	}
	per := float64(rowBytes(lib)) / float64(lib.NNZ())
	if per > 2.2 {
		t.Errorf("%d B of rows for %d entries: %.3f B a column, ceiling 2.2", rowBytes(lib), lib.NNZ(), per)
	}
	t.Logf("%d B of rows for %d entries: %.3f B a column", rowBytes(lib), lib.NNZ(), per)
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

// TestTrackRowViewsAreCapped: rows that share a worker's batch arrays are
// handed out with no spare capacity, so an append to one reallocates and
// cannot write into the next.
func TestTrackRowViewsAreCapped(t *testing.T) {
	cfg := smallConfig()
	cfg.Parallelism = 1 // every row in as few batch arrays as possible
	lib, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := csrHash(lib)
	for j := range lib.Tracks {
		row := lib.TrackRow(j)
		if cap(row.Segs) != len(row.Segs) || cap(row.Entries) != len(row.Entries) {
			t.Errorf("track %d: segments len %d cap %d, entries len %d cap %d",
				j, len(row.Segs), cap(row.Segs), len(row.Entries), cap(row.Entries))
		}
		_ = append(row.Segs, newSegment(1, 1, 1))
		_ = append(row.Entries, newEntry(1, 1))
	}
	if csrHash(lib) != before {
		t.Error("appending to row views changed the library")
	}
}

// TestCheckRowsPanics: the build's row validation rejects every malformed
// matrix and counts the entries of a well-formed one.
func TestCheckRowsPanics(t *testing.T) {
	e := newEntry
	seg := func(col, n int) Segment { return newSegment(col, 1, n) }
	const table = 2 + MaxSubSamples // base 1's window, for 2 sub-samples
	check := func(name string, row Row, cols int) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		checkRows([]Row{row}, cols, 2, table)
	}
	check("segment without entries", Row{Segs: []Segment{seg(0, 1)}}, 3)
	check("segment past the entries", Row{Segs: []Segment{seg(0, 2)}, Entries: []Entry{e(0, 1)}}, 3)
	check("entries past the segments", Row{Segs: []Segment{seg(0, 1)}, Entries: []Entry{e(0, 1), e(1, 1)}}, 3)
	check("opening gap", Row{Segs: []Segment{seg(0, 1)}, Entries: []Entry{e(1, 1)}}, 3)
	check("dup col", Row{Segs: []Segment{seg(1, 2)}, Entries: []Entry{e(0, 1), e(0, 1)}}, 3)
	check("segment not past the last", Row{Segs: []Segment{seg(0, 2), seg(1, 1)}, Entries: []Entry{e(0, 1), e(1, 1), e(0, 1)}}, 3)
	check("col range", Row{Segs: []Segment{seg(5, 1)}, Entries: []Entry{e(0, 1)}}, 2)
	check("negative col", Row{Segs: []Segment{seg(-1, 1)}, Entries: []Entry{e(0, 1)}}, 2)
	check("gap past the end", Row{Segs: []Segment{seg(0, 2)}, Entries: []Entry{e(0, 1), e(2, 1)}}, 2)
	check("hits past the sub-samples", Row{Segs: []Segment{seg(0, 1)}, Entries: []Entry{e(0, 3)}}, 2)
	check("base past the table", Row{Segs: []Segment{newSegment(0, 2, 1)}, Entries: []Entry{e(0, 1)}}, 2)
	// Rows 0 and 2 hold two entries each, row 2 in two segments.
	rows := []Row{
		{Segs: []Segment{seg(0, 2)}, Entries: []Entry{e(0, 1), e(2, 2)}},
		{},
		{Segs: []Segment{seg(1, 1), seg(9000, 1)}, Entries: []Entry{e(0, 1), e(0, 2)}},
	}
	if nnz := checkRows(rows, 1<<17, 2, table); nnz != 4 {
		t.Errorf("nnz = %d, want 4", nnz)
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
		segs := lib.TrackRow(j).Segs
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
						want = append(want, pair{s*m + c, math.Float64bits(float64(ras.Hits(c)) / float64(total))})
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
				out[s*m+c] += float64(n) * (float64(ras.Hits(c)) / float64(total))
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
