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
		idx, _ := lib.TrackRow(j)
		for _, k := range idx {
			put(uint64(k))
		}
	}
	fracs := lib.Fractions()
	for j := range lib.Tracks {
		_, code := lib.TrackRow(j)
		for _, c := range code {
			put(math.Float64bits(fracs[c]))
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
	// 4 B column index + 2 B value code per entry, two slice headers per
	// track, and the fraction table the codes index.
	csr := uint64(6*lib.NNZ() + 48*lib.NumTracks() + 8*len(lib.Fractions()))
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
		idx, code := lib.TrackRow(j)
		if cap(idx) != len(idx) || cap(code) != len(code) {
			t.Errorf("track %d: len %d, cap %d/%d", j, len(idx), cap(idx), cap(code))
		}
		_, _ = append(idx, 0), append(code, 1)
	}
	if csrHash(lib) != before {
		t.Error("appending to row views changed the library")
	}
}

// TestCheckRowsPanics: the build's row validation rejects every malformed
// matrix and counts the entries of a well-formed one.
func TestCheckRowsPanics(t *testing.T) {
	check := func(name string, idx [][]int32, codes [][]uint16, cols, tableLen int) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		checkRows(idx, codes, cols, tableLen)
	}
	check("row count", [][]int32{{0}}, nil, 2, 1)
	check("ragged", [][]int32{{0, 1}}, [][]uint16{{0}}, 2, 1)
	check("unsorted", [][]int32{{2, 1}}, [][]uint16{{0, 0}}, 3, 1)
	check("dup col", [][]int32{{1, 1}}, [][]uint16{{0, 0}}, 3, 1)
	check("col range", [][]int32{{5}}, [][]uint16{{0}}, 2, 1)
	check("negative col", [][]int32{{-1}}, [][]uint16{{0}}, 2, 1)
	check("code range", [][]int32{{0, 1}}, [][]uint16{{0, 3}}, 2, 3)
	if nnz := checkRows([][]int32{{0, 2}, nil, {1, 3}}, [][]uint16{{0, 2}, nil, {1, 1}}, 4, 3); nnz != 4 {
		t.Errorf("nnz = %d, want 4", nnz)
	}
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
