// Package texture builds TinyLEO's Earth-repeat ground-track ("texture")
// library (paper §4.1, Table 1): an over-complete set of candidate orbital
// slots, each with its spatiotemporal coverage over the geographic cell
// grid, stored track-major as one packed row per track — 2 B an entry, a
// 12-bit gap to the previous column and the 4-bit hit count that, with its
// (track, slot) segment's footprint total, gives the value — so the
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
	// SubSamples is the number of instants sampled inside each slot, at
	// most MaxSubSamples; A(i,j) is the fraction of sampled instants at
	// which track j covers cell i, realizing the paper's fractional coverage
	// A_t(i,j) ∈ [0,1].
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
	// j's row over the unfolded index space slot*m + cell, packed (see Row).
	// Every value is hits/total for a hit count of at most SubSamples and a
	// slot's footprint total, so fracs, indexed by a segment's base plus an
	// entry's hits, stands for it exactly.
	rows  []Row
	fracs []float64
	nnz   int
}

// Row is one track's (or satellite's) coverage over the unfolded index space
// slot*m + cell, packed: its covered columns in ascending order, cut into
// segments. A segment is a run of columns of one slot, all of whose values
// share the slot's base; an entry is one column, 2 B. A segment holds at
// most 4,096 entries, and a gap wider than an entry holds opens a new one.
// A scan walks segments, then their entries:
//
//	ents := row.Entries
//	for _, sg := range row.Segs {
//		k, vals, n := int(sg.Col), sg.Values(table), sg.Len()
//		for _, e := range ents[:n] {
//			k += e.Gap()
//			... vals.Of(e) at column k ...
//		}
//		ents = ents[n:]
//	}
//
// where table is the value table the rows were built for (for a Library,
// Fractions).
type Row struct {
	Segs    []Segment
	Entries []Entry
}

// Segment is a run of a row's entries within one slot, 8 B: the column of
// its first entry, whose gap is 0, and one word holding its base in the high
// 20 bits and its number of entries less one in the low 12.
type Segment struct {
	Col  int32
	word uint32
}

// Entry is one covered column of a segment, 2 B: its gap from the column
// before it in the segment (0 for the segment's first) in the high 12 bits,
// and its hit count less one in the low 4.
type Entry uint16

const (
	// hitsBits is an entry's field for the hit count less one, and
	// MaxSubSamples the most sub-samples a slot that field can count.
	hitsBits      = 4
	hitsMask      = 1<<hitsBits - 1
	MaxSubSamples = 1 << hitsBits
	// maxGap is the widest gap an entry holds.
	maxGap = 1<<(16-hitsBits) - 1
	// lenBits is a segment's field for its entries less one, maxSegEntries
	// the most entries it counts, and MaxBase the largest base the rest of
	// its word holds.
	lenBits       = 12
	maxSegEntries = 1 << lenBits
	MaxBase       = 1<<(32-lenBits) - 1
)

func newSegment(col, base, n int) Segment {
	return Segment{Col: int32(col), word: uint32(base)<<lenBits | uint32(n-1)}
}

// Base returns total·S − 1, S the sub-samples a slot and total its
// footprints' cell count: the value of an entry e is table[Base + e.Hits()].
func (s Segment) Base() int { return int(s.word >> lenBits) }

// Len returns the segment's number of entries, at least 1.
func (s Segment) Len() int { return int(s.word&(maxSegEntries-1)) + 1 }

// Gap returns how many columns e sits after the entry before it in its
// segment; a segment's first entry has gap 0.
func (e Entry) Gap() int { return int(e) >> hitsBits }

// Hits returns at how many of its slot's sample instants e's column was
// covered, 1 to MaxSubSamples.
func (e Entry) Hits() int { return int(e)&hitsMask + 1 }

func newEntry(gap, hits int) Entry { return Entry(gap<<hitsBits | (hits - 1)) }

// Values is a segment's window on a value table: v[h-1] is the value of its
// entries with h hits.
type Values [MaxSubSamples]float64

// Of returns the value of e, an entry of the segment v was taken for.
func (v *Values) Of(e Entry) float64 { return v[int(e)&hitsMask] }

// Values returns the window on table that the segment's entries index. The
// table ends MaxSubSamples past its last base (see ValueTable), so the
// window is a view, not a copy.
func (s Segment) Values(table []float64) *Values {
	b := s.Base() + 1
	return (*Values)(table[b : b+MaxSubSamples])
}

// ValueTable returns the value table of rows whose segments' bases reach top,
// for sub sub-samples a slot: entry total·sub + hits − 1 is value(hits,
// total) for 1 ≤ hits ≤ sub, every other entry 0, and the table runs
// MaxSubSamples past top so that every segment's Values is a view of it.
func ValueTable(top, sub int, value func(hits, total int) float64) []float64 {
	t := make([]float64, top+1+MaxSubSamples)
	for c := sub; c <= top+sub; c++ {
		t[c] = value(c%sub+1, c/sub)
	}
	return t
}

// AppendRow appends to r the coverage of a satellite on el, of footprint
// radius lam, over slots [0, slots) as ras samples it, and returns r with the
// largest base it computed, which the caller checks against MaxBase before it
// keeps any entry. ras's sub-samples must be at most MaxSubSamples.
func AppendRow(r Row, ras *Rasterizer, el orbit.Elements, lam float64, slots int) (Row, int) {
	sub := len(ras.offsets)
	if sub > MaxSubSamples {
		panic(fmt.Sprintf("texture: %d sub-samples, an entry counts %d", sub, MaxSubSamples))
	}
	m, top := ras.grid.NumCells(), 0
	for s := 0; s < slots; s++ {
		cells, total := ras.Slot(el, lam, s)
		base := total*sub - 1
		top = max(top, base)
		prev := -1 - maxGap // too far from any column: the slot's first opens a segment
		for _, c := range cells {
			col := s*m + c
			if gap := col - prev; gap <= maxGap && r.Segs[len(r.Segs)-1].Len() < maxSegEntries {
				r.Segs[len(r.Segs)-1].word++ // one entry more
				r.Entries = append(r.Entries, newEntry(gap, ras.Hits(c)))
			} else {
				r.Segs = append(r.Segs, newSegment(col, base, 1))
				r.Entries = append(r.Entries, newEntry(0, ras.Hits(c)))
			}
			prev = col
		}
	}
	return r, top
}

// Build enumerates candidates and computes their coverage in parallel.
func Build(cfg Config) (*Library, error) {
	cfg.fillDefaults()
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("texture: no repeat specs in configuration")
	}
	if cfg.SubSamples > MaxSubSamples {
		return nil, fmt.Errorf("texture: %d sub-samples a slot, but an entry's 4-bit field counts at most %d hits",
			cfg.SubSamples, MaxSubSamples)
	}
	m := cfg.Grid.NumCells()
	if cols := cfg.Slots * m; cols > math.MaxInt32 {
		return nil, fmt.Errorf("texture: %d slots of %d cells pass a segment's 32-bit column", cfg.Slots, m)
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
	lib.rows = make([]Row, len(tracks))
	offsets := make([]float64, cfg.SubSamples)
	for ss := range offsets {
		offsets[ss] = float64(ss) / float64(cfg.SubSamples)
	}
	workers := min(cfg.Parallelism, len(tracks))
	maxBase := make([]int, workers)
	var next atomic.Int64
	next.Store(int64(workers))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ras := NewRasterizer(cfg.Grid, cfg.SlotSeconds, offsets)
			var scratch Row
			var held []heldRow
			flush := func() {
				segs := append(make([]Segment, 0, len(scratch.Segs)), scratch.Segs...)
				ents := append(make([]Entry, 0, len(scratch.Entries)), scratch.Entries...)
				var s0, e0 int
				for _, h := range held {
					lib.rows[h.track] = Row{Segs: segs[s0:h.segs:h.segs], Entries: ents[e0:h.ents:h.ents]}
					s0, e0 = h.segs, h.ents
				}
				scratch, held = Row{Segs: scratch.Segs[:0], Entries: scratch.Entries[:0]}, held[:0]
			}
			// Worker w starts on track w whenever it is scheduled, so the row
			// that sizes its scratch does not depend on that.
			for j := w; j < len(tracks); j = int(next.Add(1)) - 1 {
				s0, e0 := len(scratch.Segs), len(scratch.Entries)
				el := tracks[j].Elements
				var top int
				scratch, top = AppendRow(scratch, ras, el, cfg.Coverage.FootprintRadius(el.Altitude()), cfg.Slots)
				maxBase[w] = max(maxBase[w], top)
				held = append(held, heldRow{track: j, segs: len(scratch.Segs), ents: len(scratch.Entries)})
				scratch.Segs = reserve(scratch.Segs, len(scratch.Segs)-s0)
				scratch.Entries = reserve(scratch.Entries, len(scratch.Entries)-e0)
				if cap(scratch.Segs)-len(scratch.Segs) < 2*(len(scratch.Segs)-s0) ||
					cap(scratch.Entries)-len(scratch.Entries) < 2*(len(scratch.Entries)-e0) {
					flush()
				}
			}
			flush()
		}()
	}
	wg.Wait()

	top := slices.Max(maxBase)
	if top > MaxBase {
		return nil, fmt.Errorf("texture: segment base %d does not fit 20 bits: a slot's footprints total %d cells over %d sub-samples",
			top, (top+1)/cfg.SubSamples, cfg.SubSamples)
	}
	// Per the paper's supply model, A_t(i,j) is the fraction of satellite j's
	// radio-link capacity over cell i, so each satellite's coverage sums to 1
	// per slot (its capacity is one satellite unit regardless of footprint
	// size): a wide footprint spreads capacity thinner, it does not multiply
	// it.
	lib.fracs = ValueTable(top, cfg.SubSamples, func(hits, total int) float64 { return float64(hits) / float64(total) })
	lib.nnz = checkRows(lib.rows, cfg.Slots*m, cfg.SubSamples, len(lib.fracs))
	return lib, nil
}

// reserve returns s, moved to an array with room for batchRows rows of n
// elements when it has room for fewer than minBatchRows: the first row, or
// one far larger than any before it.
func reserve[T any](s []T, n int) []T {
	if cap(s) < minBatchRows*n {
		return append(make([]T, 0, batchRows*n), s...)
	}
	return s
}

// checkRows panics unless every row is well formed — its segments' entry
// counts adding up to its entries, each segment's first
// entry of gap 0 past the previous segment's last column, every later gap
// at least 1, every column inside [0, cols), every hit count at most sub,
// and every segment's Values inside a table of tableLen values — and returns
// the number of entries. The rows are built this way, so a failure is a bug
// in the build.
func checkRows(rows []Row, cols, sub, tableLen int) int {
	nnz := 0
	for i, row := range rows {
		ents, k := row.Entries, -1
		for n, sg := range row.Segs {
			switch {
			case sg.Len() > len(ents):
				panic(fmt.Sprintf("texture: row %d segment %d counts %d of %d entries left", i, n, sg.Len(), len(ents)))
			case int(sg.Col) <= k:
				panic(fmt.Sprintf("texture: row %d segment %d opens at col %d, not past %d", i, n, sg.Col, k))
			case sg.Base()+1+MaxSubSamples > tableLen:
				panic(fmt.Sprintf("texture: row %d segment %d base %d outside a table of %d", i, n, sg.Base(), tableLen))
			}
			k = int(sg.Col)
			for x, e := range ents[:sg.Len()] {
				k += e.Gap()
				switch {
				case x == 0 && e.Gap() != 0:
					panic(fmt.Sprintf("texture: row %d segment %d opens with gap %d", i, n, e.Gap()))
				case x > 0 && e.Gap() == 0:
					panic(fmt.Sprintf("texture: row %d not strictly increasing in segment %d", i, n))
				case k < 0 || k >= cols:
					panic(fmt.Sprintf("texture: row %d col %d out of range [0,%d)", i, k, cols))
				case e.Hits() > sub:
					panic(fmt.Sprintf("texture: row %d col %d has %d hits of %d sub-samples", i, k, e.Hits(), sub))
				}
			}
			ents = ents[sg.Len():]
			nnz += sg.Len()
		}
		if len(ents) != 0 {
			panic(fmt.Sprintf("texture: row %d has %d entries past its segments", i, len(ents)))
		}
	}
	return nnz
}

// A worker's scratch is sized for batchRows rows like the one that made it
// grow, and grows again only when it would hold fewer than minBatchRows: rows
// enough to an array that a build allocates seldom, few enough that the
// scratch is a small fraction of the matrix.
const batchRows, minBatchRows = 24, 4

// heldRow is a track's row in a worker's scratch: where its segments and its
// entries end, from the previous one's.
type heldRow struct{ track, segs, ents int }

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

// TrackRow returns track j's packed coverage over the flattened slot*m+cell
// space (see Row for how to scan it), read-only views with no spare
// capacity. Its values index Fractions.
func (l *Library) TrackRow(j int) Row { return l.rows[j] }

// Fractions returns the read-only value table of TrackRow's segments: entry
// base + hits is hits/total (see ValueTable).
func (l *Library) Fractions() []float64 { return l.fracs }

// TrackNNZ returns the number of (slot, cell) pairs track j covers.
func (l *Library) TrackNNZ(j int) int { return len(l.rows[j].Entries) }

// Supply accumulates the unfolded network supply Ã·x for integer satellite
// counts x (len NumTracks) into a dense vector of length UnfoldedLen.
func (l *Library) Supply(x []int) []float64 {
	if len(x) != len(l.Tracks) {
		panic("texture: Supply dimension mismatch")
	}
	out, fracs := make([]float64, l.UnfoldedLen()), l.fracs
	for j, xj := range x {
		if xj == 0 {
			continue
		}
		AddRow(out, l.rows[j], fracs, float64(xj))
	}
	return out
}

// AddRow adds w times row's values, read from table, to out at their
// columns (w = −1 subtracts them exactly). It is a function of its own so
// that the segment and entry loops have the registers to themselves.
func AddRow(out []float64, row Row, table []float64, w float64) {
	ents := row.Entries
	for _, sg := range row.Segs {
		k, vals, n := int(sg.Col), sg.Values(table), sg.Len()
		for _, e := range ents[:n] {
			k += e.Gap()
			out[k] += w * vals.Of(e)
		}
		ents = ents[n:]
	}
}

// Score returns how much of residual one satellite on row would satisfy,
// Σ min(v_k, r_k), together with Σ v_k·r_k and Σ v_k², each taken over the
// columns k whose residual r_k is positive and summed in column order, v_k
// the row's values read from table: the sparsifier's score of a track and
// the exact solver's branching rule. It is a function of its own so that the
// segment and entry loops have the registers to themselves; written into its
// caller, they spill and the scan is ~10 % slower.
func Score(row Row, table, residual []float64) (satisfiable, dot, norm2 float64) {
	ents := row.Entries
	for _, sg := range row.Segs {
		k, vals, n := int(sg.Col), sg.Values(table), sg.Len()
		for _, e := range ents[:n] {
			k += e.Gap()
			r := residual[k]
			if r <= 0 {
				continue
			}
			v := vals.Of(e)
			if v < r {
				satisfiable += v
			} else {
				satisfiable += r
			}
			dot += v * r
			norm2 += v * v
		}
		ents = ents[n:]
	}
	return satisfiable, dot, norm2
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
