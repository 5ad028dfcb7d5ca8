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
// packed rows: 4 B an entry, a slice header and a first column per track, and
// the track list, with 5 % to spare. It needs about 1 GB and a few seconds,
// so it is opt-in:
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
	rows := 4*uint64(lib.NNZ()) + n*(uint64(unsafe.Sizeof([]uint32(nil)))+4)
	tracks := n * uint64(unsafe.Sizeof(texture.Track{}))
	t.Logf("%d tracks, %d entries: built in %.2f s, %.3f GB of heap for %.3f GB of rows and %.1f MB of tracks, peak RSS %s",
		lib.NumTracks(), lib.NNZ(), build.Seconds(), float64(ms.HeapAlloc)/1e9, float64(rows)/1e9, float64(tracks)/1e6, peakRSS())
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
