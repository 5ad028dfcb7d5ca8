// Package texture builds TinyLEO's Earth-repeat ground-track ("texture")
// library (paper §4.1, Table 1): an over-complete set of candidate orbital
// slots, each with its spatiotemporal coverage over the geographic cell
// grid, stored track-major as one packed row per track — 4 B an entry, a
// 16-bit gap to the previous column and a 16-bit code for the value — so the
// synthesizer's matching pursuit can scan candidate columns in parallel.
package texture

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/orbit"
)

// Track is one candidate orbital slot: an Earth-repeat family plus a
// concrete inclination, RAAN, and initial phase. Placing x satellites on a
// Track multiplies its coverage column by x (the paper's linear supply
// model A_t·x).
type Track struct {
	Spec     orbit.RepeatSpec
	Elements orbit.Elements
}

// InclinationDeg returns the track's inclination β in degrees.
func (t Track) InclinationDeg() float64 { return geom.Rad2Deg(t.Elements.Inclination) }

// RAANDeg returns the track's right ascension α in degrees.
func (t Track) RAANDeg() float64 { return geom.Rad2Deg(t.Elements.RAAN) }

// PhaseDeg returns the track's initial argument of latitude in degrees.
func (t Track) PhaseDeg() float64 { return geom.Rad2Deg(t.Elements.Phase) }

// Config parameterizes library generation.
type Config struct {
	Grid *geo.Grid
	// Specs are the Earth-repeat (p,q) families to include. If empty,
	// orbit.EnumerateRepeatSpecs(2, 423 km, 1,873 km) — the paper's Table 1
	// altitude band — is used.
	Specs []orbit.RepeatSpec
	// InclinationsDeg is the β grid. If empty a default ±{30,53,70,85}°
	// prograde/retrograde mix is used.
	InclinationsDeg []float64
	// RAANs is the number of evenly spaced right ascensions α in [-180,180).
	RAANs int
	// Phases is the number of evenly spaced initial phases per orbit.
	Phases int
	// Slots and SlotSeconds define the planning horizon (temporal
	// unfolding). The paper samples demand at 15-minute intervals.
	Slots       int
	SlotSeconds float64
	// SubSamples is the number of instants sampled inside each slot;
	// A(i,j) is the fraction of sampled instants at which track j covers
	// cell i, realizing the paper's fractional coverage A_t(i,j) ∈ [0,1].
	SubSamples int
	// Coverage sets the radio footprint geometry.
	Coverage orbit.CoverageParams
	// Occupied, if non-nil, filters out orbits already occupied or
	// allocated per the space-track/ITU databases the paper consults
	// (§5); return true to exclude the candidate.
	Occupied func(spec orbit.RepeatSpec, incDeg, raanDeg float64) bool
	// Parallelism bounds the number of worker goroutines (0 = NumCPU).
	Parallelism int
}

func (c *Config) fillDefaults() {
	if c.Grid == nil {
		c.Grid = geo.DefaultGrid()
	}
	if len(c.Specs) == 0 {
		c.Specs = orbit.EnumerateRepeatSpecs(2, 423e3, 1873e3)
	}
	if len(c.InclinationsDeg) == 0 {
		c.InclinationsDeg = []float64{30, 53, 70, 85, 97.6, -30, -53, -70}
	}
	if c.RAANs <= 0 {
		c.RAANs = 12
	}
	if c.Phases <= 0 {
		c.Phases = 4
	}
	if c.Slots <= 0 {
		c.Slots = 96
	}
	if c.SlotSeconds <= 0 {
		c.SlotSeconds = 900
	}
	if c.SubSamples <= 0 {
		c.SubSamples = 3
	}
	if c.Coverage.MinElevation == 0 {
		c.Coverage = orbit.DefaultCoverageParams
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.NumCPU()
	}
}

// Library is the assembled texture library: candidate tracks plus their
// coverage over the unfolded (slot × cell) space.
type Library struct {
	Grid        *geo.Grid
	Tracks      []Track
	Slots       int
	SlotSeconds float64
	Coverage    orbit.CoverageParams

	// The coverage matrix is track-major (Ãᵀ of the paper): rows[j] is track
	// j's row over the unfolded index space slot*m + cell, one 4 B entry
	// gap<<16 | code per covered column in ascending order, and first[j] the
	// column of its first entry, whose gap is 0. Every value is hits/total
	// for a small hit count and a slot's footprint total, so a 16-bit code
	// into fracs stands for it exactly. A gap wider than 16 bits is bridged
	// by fillers, entries of gap maxGap and code 0, and fracs[0] is 0: a
	// filler adds exactly +0 to any sum over the row.
	first []int32
	rows  [][]Entry
	fracs []float64
	nnz   int
}

// Entry is one packed coverage entry of a library row: the number of columns
// it sits after the entry before it in its high 16 bits, and the code of its
// value, an index into Library.Fractions, in its low 16.
type Entry uint32

// Gap returns how many columns e sits after the entry before it; the first
// entry of a row has gap 0.
func (e Entry) Gap() int { return int(e >> 16) }

// Code returns the index of e's value in Library.Fractions.
func (e Entry) Code() uint16 { return uint16(e) }

func newEntry(gap int, code uint16) Entry { return Entry(gap)<<16 | Entry(code) }

// maxGap is the widest gap an entry holds, and filler the entry that bridges
// a wider one: code 0, which no covered column has, of value 0.
const (
	maxGap       = 1<<16 - 1
	filler Entry = maxGap << 16
)

// Build enumerates candidates and computes their coverage in parallel.
func Build(cfg Config) (*Library, error) {
	cfg.fillDefaults()
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("texture: no repeat specs in configuration")
	}
	tracks := make([]Track, 0, len(cfg.Specs)*len(cfg.InclinationsDeg)*cfg.RAANs*cfg.Phases)
	for _, spec := range cfg.Specs {
		for _, incDeg := range cfg.InclinationsDeg {
			for a := 0; a < cfg.RAANs; a++ {
				raanDeg := -180 + 360*float64(a)/float64(cfg.RAANs)
				if cfg.Occupied != nil && cfg.Occupied(spec, incDeg, raanDeg) {
					continue
				}
				for ph := 0; ph < cfg.Phases; ph++ {
					phase := 2 * 3.141592653589793 * float64(ph) / float64(cfg.Phases)
					el := spec.Elements(geom.Deg2Rad(incDeg), geom.Deg2Rad(raanDeg), phase)
					tracks = append(tracks, Track{Spec: spec, Elements: el})
				}
			}
		}
	}
	if len(tracks) == 0 {
		return nil, fmt.Errorf("texture: all candidates filtered out")
	}
	lib := &Library{
		Grid:        cfg.Grid,
		Tracks:      tracks,
		Slots:       cfg.Slots,
		SlotSeconds: cfg.SlotSeconds,
		Coverage:    cfg.Coverage,
	}

	// A fixed pool of workers, each with its own rasterizer and row scratch,
	// takes tracks off a shared counter and rasterizes them back to back into
	// the scratch, packed as they are stored. Before the next row might not
	// fit, the rows held there are copied out once, exactly sized, and filed
	// as capacity-capped views of that copy: the build's garbage is the
	// workers' scratch.
	m := cfg.Grid.NumCells()
	lib.first = make([]int32, len(tracks))
	lib.rows = make([][]Entry, len(tracks))
	offsets := make([]float64, cfg.SubSamples)
	for ss := range offsets {
		offsets[ss] = float64(ss) / float64(cfg.SubSamples)
	}
	workers := min(cfg.Parallelism, len(tracks))
	maxCode := make([]int, workers)
	var next atomic.Int64
	next.Store(int64(workers))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ras := NewRasterizer(cfg.Grid, cfg.SlotSeconds, offsets)
			var entries []Entry
			var held []heldRow
			flush := func() {
				rows := append(make([]Entry, 0, len(entries)), entries...)
				start := 0
				for _, h := range held {
					lib.rows[h.track] = rows[start:h.end:h.end]
					start = h.end
				}
				entries, held = entries[:0], held[:0]
			}
			// Worker w starts on track w whenever it is scheduled, so the row
			// that sizes its scratch does not depend on that.
			for j := w; j < len(tracks); j = int(next.Add(1)) - 1 {
				start := len(entries)
				var top int
				entries, lib.first[j], top = appendCoverageRow(entries, ras, cfg, tracks[j].Elements, m)
				maxCode[w] = max(maxCode[w], top)
				held = append(held, heldRow{track: j, end: len(entries)})
				n := len(entries) - start
				if cap(entries) < minBatchRows*n {
					// The first row, or one far larger than any before it:
					// room for a batch of its like, made at once.
					entries = append(make([]Entry, 0, batchRows*n), entries...)
				}
				if cap(entries)-len(entries) < 2*n {
					flush()
				}
			}
			flush()
		}()
	}
	wg.Wait()

	top := slices.Max(maxCode)
	if top > math.MaxUint16 {
		return nil, fmt.Errorf("texture: coverage code %d does not fit 16 bits: a slot's footprints total %d cells over %d sub-samples",
			top, top/cfg.SubSamples, cfg.SubSamples)
	}
	// Code c = total*S + hits - 1 stands for hits/total: total = c/S and hits
	// = c%S + 1, since hits ≤ S. No code is below S, as total ≥ hits ≥ 1, so
	// fracs[0], the fillers' code, is 0.
	sub := cfg.SubSamples
	lib.fracs = make([]float64, top+1)
	for c := sub; c <= top; c++ {
		lib.fracs[c] = float64(c%sub+1) / float64(c/sub)
	}
	lib.nnz = checkRows(lib.first, lib.rows, cfg.Slots*m, len(lib.fracs))
	return lib, nil
}

// checkRows panics unless every row is well formed — its first entry real,
// at first[i] with gap 0, every later gap at least 1, every column inside
// [0, cols), every code inside a table of tableLen values, and every filler
// carrying the widest gap and followed by another entry — and returns the
// number of real entries. The rows are built this way, so a failure is a
// bug in the build.
func checkRows(first []int32, rows [][]Entry, cols, tableLen int) int {
	if len(first) != len(rows) {
		panic(fmt.Sprintf("texture: %d first columns but %d rows", len(first), len(rows)))
	}
	nnz := 0
	for i, row := range rows {
		k := int(first[i])
		for n, e := range row {
			gap, code := e.Gap(), int(e.Code())
			k += gap
			switch {
			case n == 0 && (gap != 0 || code == 0):
				panic(fmt.Sprintf("texture: row %d opens with gap %d, code %d", i, gap, code))
			case n > 0 && gap == 0:
				panic(fmt.Sprintf("texture: row %d not strictly increasing at %d", i, n))
			case k < 0 || k >= cols:
				panic(fmt.Sprintf("texture: row %d col %d out of range [0,%d)", i, k, cols))
			case code >= tableLen:
				panic(fmt.Sprintf("texture: row %d code %d outside a table of %d", i, code, tableLen))
			case code == 0 && (gap != maxGap || n == len(row)-1):
				panic(fmt.Sprintf("texture: row %d has a filler of gap %d at %d of %d", i, gap, n, len(row)))
			case code != 0:
				nnz++
			}
		}
	}
	return nnz
}

// A worker's scratch is sized for batchRows rows like the one that made it
// grow, and grows again only when it would hold fewer than minBatchRows: rows
// enough to an array that a build allocates seldom, few enough that the
// scratch is a small fraction of the matrix.
const batchRows, minBatchRows = 24, 4

// heldRow is a track's row in a worker's scratch, from the previous one's end.
type heldRow struct{ track, end int }

// appendCoverageRow appends one track's unfolded coverage to row, packed:
// for each covered column slot*m+cell in ascending order, its gap from the
// previous one (0 for the first, whose column it returns; fillers first when
// the gap passes 16 bits) and the code total*S + hits - 1 of its fraction
// hits/total (S = cfg.SubSamples). It returns the largest code, which the
// caller must check fits 16 bits before it keeps any. Per the paper's supply
// model, A_t(i,j) is the fraction of satellite j's radio-link capacity over
// cell i, so each satellite's coverage sums to 1 per slot (its capacity is
// one satellite unit regardless of footprint size): a wide footprint spreads
// capacity thinner, it does not multiply it.
func appendCoverageRow(row []Entry, ras *Rasterizer, cfg Config, el orbit.Elements, m int) ([]Entry, int32, int) {
	lam := cfg.Coverage.FootprintRadius(el.Altitude())
	top, first, prev := 0, 0, -1
	for s := 0; s < cfg.Slots; s++ {
		cells, total := ras.Slot(el, lam, s)
		for _, c := range cells {
			code := total*cfg.SubSamples + ras.Hits(c) - 1
			top = max(top, code)
			col, gap := s*m+c, 0
			if prev < 0 {
				first = col
			} else {
				gap = col - prev
			}
			for ; gap > maxGap; gap -= maxGap {
				row = append(row, filler)
			}
			row = append(row, newEntry(gap, uint16(code)))
			prev = col
		}
	}
	return row, int32(first), top
}

// Rasterizer samples a satellite's radio footprint over the cell grid one
// slot at a time: which cells the footprint covers at the slot's sub-sample
// instants, and at how many of them. It is the one slot → sub-sample →
// cells-within → count loop behind the library's rows and the supply of a
// concrete constellation (internal/baseline). A Rasterizer is scratch: one
// goroutine owns it, and a Slot call invalidates what the previous returned.
type Rasterizer struct {
	grid        *geo.Grid
	slotSeconds float64
	offsets     []float64
	hits        []int32 // per cell, zero outside cells
	cells       []int   // the cells the current slot's samples cover, ascending
	within      []int   // one sample's footprint
}

// NewRasterizer returns a rasterizer over grid that samples slot s at
// (s + offsets[i]) × slotSeconds.
func NewRasterizer(grid *geo.Grid, slotSeconds float64, offsets []float64) *Rasterizer {
	n := grid.NumCells()
	return &Rasterizer{grid: grid, slotSeconds: slotSeconds, offsets: offsets,
		hits: make([]int32, n), cells: make([]int, 0, n), within: make([]int, 0, n)}
}

// Slot samples the footprint (angular radius lam) of a satellite on el during
// slot s. It returns the covered cells in ascending order and the total of
// their Hits.
func (r *Rasterizer) Slot(el orbit.Elements, lam float64, s int) (cells []int, total int) {
	for _, c := range r.cells {
		r.hits[c] = 0
	}
	r.cells = r.cells[:0]
	lo, hi := len(r.hits), -1
	for _, off := range r.offsets {
		t := (float64(s) + off) * r.slotSeconds
		r.within = r.grid.AppendCellsWithin(r.within[:0], el.SubSatellitePoint(t), lam)
		for _, c := range r.within {
			r.hits[c]++
			lo, hi = min(lo, c), max(hi, c)
		}
		total += len(r.within)
	}
	// The samples' union in ascending order is one scan of the id range they
	// touched, a slot's arc of grid rows: cheaper than sorting the union.
	for c := lo; c <= hi; c++ {
		if r.hits[c] != 0 {
			r.cells = append(r.cells, c)
		}
	}
	return r.cells, total
}

// Hits returns at how many of the last Slot's sample instants cell was
// covered.
func (r *Rasterizer) Hits(cell int) int { return int(r.hits[cell]) }

// NumTracks returns the number of candidate tracks.
func (l *Library) NumTracks() int { return len(l.Tracks) }

// UnfoldedLen returns slots × cells, the length of demand/residual vectors.
func (l *Library) UnfoldedLen() int { return l.Slots * l.Grid.NumCells() }

// TrackEntries returns track j's coverage over the flattened slot*m+cell
// space: the column of its first entry and a read-only view, with no spare
// capacity, of its packed entries in ascending column order. A scan decodes
// the columns as it goes:
//
//	k, row := lib.TrackEntries(j)
//	for _, e := range row {
//		k += e.Gap()
//		... fracs[e.Code()] at column k ...
//	}
//
// Some entries may be fillers of value 0 that only carry a wide gap.
func (l *Library) TrackEntries(j int) (first int, entries []Entry) {
	return int(l.first[j]), l.rows[j]
}

// Fractions returns the read-only table of coverage fractions that the codes
// of TrackEntries' entries index. Its entry 0 is 0: a filler's value.
func (l *Library) Fractions() []float64 { return l.fracs }

// TrackNNZ returns the number of (slot, cell) pairs track j covers: its
// entries but the fillers.
func (l *Library) TrackNNZ(j int) int {
	n := 0
	for _, e := range l.rows[j] {
		if e != filler {
			n++
		}
	}
	return n
}

// Supply accumulates the unfolded network supply Ã·x for integer satellite
// counts x (len NumTracks) into a dense vector of length UnfoldedLen.
func (l *Library) Supply(x []int) []float64 {
	if len(x) != len(l.Tracks) {
		panic("texture: Supply dimension mismatch")
	}
	out, fracs := make([]float64, l.UnfoldedLen()), l.fracs
	for j, n := range x {
		if n == 0 {
			continue
		}
		fn := float64(n)
		k, row := l.TrackEntries(j)
		for _, e := range row {
			k += e.Gap()
			out[k] += fn * fracs[e.Code()]
		}
	}
	return out
}

// NNZ returns the total stored coverage entries across all tracks.
func (l *Library) NNZ() int { return l.nnz }

// Stats summarizes the library the way the paper's Table 1 does.
type Stats struct {
	NumTracks            int
	MinAltKm, MaxAltKm   float64
	MinPeriodMin         float64
	MaxPeriodMin         float64
	NumSpecs             int
	CoverageEntriesTotal int
}

// Stats computes Table 1-style statistics.
func (l *Library) Stats() Stats {
	s := Stats{NumTracks: len(l.Tracks), MinAltKm: 1e18, MinPeriodMin: 1e18}
	specs := map[orbit.RepeatSpec]bool{}
	for _, t := range l.Tracks {
		specs[t.Spec] = true
		alt := t.Elements.Altitude() / 1e3
		per := t.Elements.Period() / 60
		if alt < s.MinAltKm {
			s.MinAltKm = alt
		}
		if alt > s.MaxAltKm {
			s.MaxAltKm = alt
		}
		if per < s.MinPeriodMin {
			s.MinPeriodMin = per
		}
		if per > s.MaxPeriodMin {
			s.MaxPeriodMin = per
		}
	}
	s.NumSpecs = len(specs)
	s.CoverageEntriesTotal = l.NNZ()
	return s
}
