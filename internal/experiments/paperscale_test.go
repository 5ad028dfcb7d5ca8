package experiments

import (
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/texture"
)

// TestPaperLibraryEnvelope builds the Paper scale's texture library (18,144
// tracks, 251,778,636 entries, stored as 1,008 class rows of 13,987,702) and
// checks that it holds no more heap than what it stores — its class rows,
// views and value table (texture.Library.StoredBytes) — and its track list,
// with 5 % to spare: about 40 MB, built in under a second on two cores.
func TestPaperLibraryEnvelope(t *testing.T) {
	start := time.Now()
	lib, err := texture.Build(Paper.LibraryConfig())
	if err != nil {
		t.Fatal(err)
	}
	build := time.Since(start)
	if lib.NumTracks() != 18144 || lib.NNZ() != 251778636 || lib.StoredRows() != 1008 || lib.StoredEntries() != 13987702 {
		t.Errorf("%d tracks, %d entries, %d stored rows of %d entries; want 18,144, 251,778,636, 1,008 and 13,987,702",
			lib.NumTracks(), lib.NNZ(), lib.StoredRows(), lib.StoredEntries())
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rows := uint64(lib.StoredBytes())
	tracks := uint64(lib.NumTracks()) * uint64(unsafe.Sizeof(texture.Track{}))
	t.Logf("%d tracks, %d entries in %d class rows of %d: built in %.2f s, %.1f MB of heap for %.1f MB of rows and %.1f MB of tracks, peak RSS %s",
		lib.NumTracks(), lib.NNZ(), lib.StoredRows(), lib.StoredEntries(), build.Seconds(), float64(ms.HeapAlloc)/1e6, float64(rows)/1e6, float64(tracks)/1e6, peakRSS())
	if limit := (rows + tracks) * 105 / 100; ms.HeapAlloc > limit {
		t.Errorf("heap %d B after a GC, over 1.05× the library's %d B", ms.HeapAlloc, rows+tracks)
	}
	runtime.KeepAlive(lib)
}

// peakRSS is the process's high-water resident set as /proc reports it, or
// "unknown" where there is no /proc.
func peakRSS() string {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
