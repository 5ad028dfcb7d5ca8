package texture

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/orbit"
)

// csrHash hashes the library's matrix as flat CSR: the running row ends, then
// the column indices, then the bits of the values the codes stand for, each as
// little-endian uint64.
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
		k, row := lib.TrackEntries(j)
		for _, e := range row {
			if k += e.Gap(); e != filler {
				put(uint64(k))
			}
		}
	}
	fracs := lib.Fractions()
	for j := range lib.Tracks {
		_, row := lib.TrackEntries(j)
		for _, e := range row {
			if e != filler {
				put(math.Float64bits(fracs[e.Code()]))
			}
		}
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
// build may allocate at most 1.25× what its matrix occupies (the matrix, held
// once, in arrays the allocator rounds up; each worker's scratch, a couple of
// dozen rows; the track list) in at most one allocation per four tracks. A
// second copy of the rows, however short-lived, does not fit.
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
	// One 4 B packed entry per covered column (this grid needs no filler),
	// a slice header and a first column per track, and the fraction table
	// the codes index.
	csr := uint64(4*lib.NNZ() + 28*lib.NumTracks() + 8*len(lib.Fractions()))
	if got := after.TotalAlloc - before.TotalAlloc; got > csr*5/4 {
		t.Errorf("Build allocated %d B for a %d B matrix (%.2f×), ceiling 1.25×", got, csr, float64(got)/float64(csr))
	}
	if got := after.Mallocs - before.Mallocs; got > uint64(lib.NumTracks()/4) {
		t.Errorf("Build made %d allocations for %d tracks, ceiling one per four tracks", got, lib.NumTracks())
	}
}

// TestBuildRejectsCodeOverflow: a slot whose footprints total so many cells
// that a value code would pass 16 bits fails the build instead of wrapping
// onto another fraction; the same library with fewer sub-samples builds.
func TestBuildRejectsCodeOverflow(t *testing.T) {
	cfg := Config{
		Grid:            geo.MustGrid(10),
		Specs:           []orbit.RepeatSpec{{P: 1, Q: 12}},
		InclinationsDeg: []float64{53},
		RAANs:           1, Phases: 1, Slots: 2, SubSamples: 8,
		Coverage: orbit.CoverageParams{MinElevation: 1e-3}, // a horizon-wide footprint
	}
	lib, err := Build(cfg)
	if err != nil {
		t.Fatalf("%d sub-samples: %v", cfg.SubSamples, err)
	}
	if top := len(lib.Fractions()) - 1; top < 1<<12 {
		t.Fatalf("largest code %d at %d sub-samples: footprint too small to reach 16 bits at 40", top, cfg.SubSamples)
	}
	cfg.SubSamples = 40 // codes grow with the square of the sub-samples
	if lib, err := Build(cfg); err == nil || !strings.Contains(err.Error(), "16 bits") {
		t.Fatalf("%d sub-samples: Build = %v, %v; want a 16-bit overflow error", cfg.SubSamples, lib, err)
	}
}

// TestTrackRowViewsAreCapped: rows that share a worker's batch array are
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
		_, row := lib.TrackEntries(j)
		if cap(row) != len(row) {
			t.Errorf("track %d: len %d, cap %d", j, len(row), cap(row))
		}
		_ = append(row, newEntry(1, 1))
	}
	if csrHash(lib) != before {
		t.Error("appending to row views changed the library")
	}
}

// TestCheckRowsPanics: the build's row validation rejects every malformed
// matrix and counts the real entries of a well-formed one.
func TestCheckRowsPanics(t *testing.T) {
	e := newEntry
	check := func(name string, first []int32, rows [][]Entry, cols, tableLen int) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		checkRows(first, rows, cols, tableLen)
	}
	check("row count", []int32{0}, nil, 2, 2)
	check("opening gap", []int32{0}, [][]Entry{{e(1, 1)}}, 3, 2)
	check("opening filler", []int32{0}, [][]Entry{{filler, e(1, 1)}}, 1<<17, 2)
	check("dup col", []int32{1}, [][]Entry{{e(0, 1), e(0, 1)}}, 3, 2)
	check("col range", []int32{5}, [][]Entry{{e(0, 1)}}, 2, 2)
	check("negative col", []int32{-1}, [][]Entry{{e(0, 1)}}, 2, 2)
	check("gap past the end", []int32{0}, [][]Entry{{e(0, 1), e(2, 1)}}, 2, 2)
	check("code range", []int32{0}, [][]Entry{{e(0, 1), e(1, 3)}}, 2, 3)
	check("short filler", []int32{0}, [][]Entry{{e(0, 1), e(7, 0), e(1, 1)}}, 16, 2)
	check("trailing filler", []int32{0}, [][]Entry{{e(0, 1), filler}}, 1<<17, 2)
	// Rows 0 and 2 hold two real entries each, row 2 across a filler.
	rows := [][]Entry{{e(0, 1), e(2, 2)}, nil, {e(0, 1), filler, e(3, 1)}}
	if nnz := checkRows([]int32{0, 0, 1}, rows, 1<<17, 3); nnz != 4 {
		t.Errorf("nnz = %d, want 4", nnz)
	}
}

// TestBuildFillsWideGaps: on a 0.5° grid a slot spans 259,200 columns, so
// where a row passes from one slot to the next its consecutive columns lie
// more than 16 bits apart. The gap is carried by fillers, which NNZ and
// TrackNNZ do not count and which change no sum: the real entries are the
// rasterizer's, and Supply is bit for bit its recount.
func TestBuildFillsWideGaps(t *testing.T) {
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
	fillers, trackNNZ := 0, 0
	for j := range lib.Tracks {
		_, row := lib.TrackEntries(j)
		for _, e := range row {
			if e == filler {
				fillers++
			}
		}
		trackNNZ += lib.TrackNNZ(j)
	}
	if fillers == 0 {
		t.Fatal("no row stored a filler: the grid is not fine enough to test them")
	}
	x := make([]int, lib.NumTracks())
	for j := range x {
		x[j] = j + 1
	}
	want, nnz := recount(lib, cfg.SubSamples, x)
	if lib.NNZ() != nnz || trackNNZ != nnz {
		t.Errorf("NNZ %d, TrackNNZ summing to %d, with %d fillers; the rasterizer counts %d entries", lib.NNZ(), trackNNZ, fillers, nnz)
	}
	got := lib.Supply(x)
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("supply[%d] = %v, recount %v", k, got[k], want[k])
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
