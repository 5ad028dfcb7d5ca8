//go:build paperscale

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
// tracks, ~252 M entries) and checks that it holds no more heap than its
// packed rows: 2 B an entry, 8 B a (track, slot) segment, two slice headers
// a track and the value table, and the track list, with 5 % to spare. It
// needs about 0.5 GB and a few seconds, so it is opt-in:
//
//	go test -tags paperscale -run TestPaperLibraryEnvelope ./internal/experiments/
func TestPaperLibraryEnvelope(t *testing.T) {
	start := time.Now()
	lib, err := texture.Build(Paper.LibraryConfig())
	if err != nil {
		t.Fatal(err)
	}
	build := time.Since(start)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	n := uint64(lib.NumTracks())
	segs := 0
	for j := range lib.NumTracks() {
		segs += len(lib.TrackRow(j).Segs)
	}
	rows := 2*uint64(lib.NNZ()) + 8*uint64(segs) + 2*n*uint64(unsafe.Sizeof([]texture.Entry(nil))) + 8*uint64(len(lib.Fractions()))
	tracks := n * uint64(unsafe.Sizeof(texture.Track{}))
	t.Logf("%d tracks, %d entries in %d segments: built in %.2f s, %.3f GB of heap for %.3f GB of rows and %.1f MB of tracks, peak RSS %s",
		lib.NumTracks(), lib.NNZ(), segs, build.Seconds(), float64(ms.HeapAlloc)/1e9, float64(rows)/1e9, float64(tracks)/1e6, peakRSS())
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
