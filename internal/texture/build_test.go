package texture

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/geo"
	"repro/internal/orbit"
)

// csrHash hashes the library's matrix as flat CSR: the running row ends, then
// the column indices, then the bits of the values, each as little-endian uint64.
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
	for j := range lib.Tracks {
		_, fracs := lib.TrackRow(j)
		for _, v := range fracs {
			put(math.Float64bits(v))
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
	// 4 B column index + 8 B value per entry, two slice headers per track.
	csr := uint64(12*lib.NNZ() + 48*lib.NumTracks())
	if got := after.TotalAlloc - before.TotalAlloc; got > csr*5/4 {
		t.Errorf("Build allocated %d B for a %d B matrix (%.2f×), ceiling 1.25×", got, csr, float64(got)/float64(csr))
	}
	if got := after.Mallocs - before.Mallocs; got > uint64(lib.NumTracks()/4) {
		t.Errorf("Build made %d allocations for %d tracks, ceiling one per four tracks", got, lib.NumTracks())
	}
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
