//go:build paperscale

package experiments

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/texture"
)

// TestPaperViewsMatchRasterizer: at the Paper scale (96 slots, 6 phases, 36
// RAANs in classes of 18) every track's view decodes, entry for entry and in
// order, to the columns and value bits AppendRow gives on the track's own
// elements. It rasterizes every track, as a library without classes would,
// so it takes several seconds and is opt-in:
//
//	go test -tags paperscale -run TestPaperViewsMatchRasterizer ./internal/experiments/
func TestPaperViewsMatchRasterizer(t *testing.T) {
	cfg := Paper.LibraryConfig()
	lib, err := texture.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	offsets := make([]float64, cfg.SubSamples)
	for i := range offsets {
		offsets[i] = float64(i) / float64(cfg.SubSamples)
	}
	fracs := lib.Fractions()
	var next, bad atomic.Int64
	var wg sync.WaitGroup
	for range max(cfg.Parallelism, 2) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ras := texture.NewRasterizer(lib.Grid, lib.SlotSeconds, offsets)
			var row texture.Row
			var got, want [][2]uint64
			for j := int(next.Add(1)) - 1; j < lib.NumTracks(); j = int(next.Add(1)) - 1 {
				el := lib.Tracks[j].Elements
				row, _ = texture.AppendRow(texture.Row{Segs: row.Segs[:0], Entries: row.Entries[:0]}, ras, el,
					lib.Coverage.FootprintRadius(el.Altitude()), lib.Slots)
				got, want = got[:0], want[:0]
				ents := row.Entries
				for _, sg := range row.Segs {
					k, vals, n := int(sg.Col), sg.Values(fracs), sg.Len()
					for _, e := range ents[:n] {
						k += e.Gap()
						want = append(want, [2]uint64{uint64(k), math.Float64bits(vals.Of(e))})
					}
					ents = ents[n:]
				}
				w := lib.TrackView(j).Walk(fracs)
				for w.Next() {
					k := w.Start
					for _, e := range w.Entries {
						k += e.Gap()
						got = append(got, [2]uint64{uint64(k), math.Float64bits(w.Vals.Of(e))})
					}
				}
				if !slices.Equal(got, want) && bad.Add(1) <= 5 {
					t.Errorf("track %d: %d entries through its view differ from the rasterizer's %d", j, len(got), len(want))
				}
			}
		}()
	}
	wg.Wait()
	if n := bad.Load(); n > 0 {
		t.Errorf("%d of %d tracks differ", n, lib.NumTracks())
	}
}
