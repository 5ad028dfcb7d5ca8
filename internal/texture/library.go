// Package texture builds TinyLEO's Earth-repeat ground-track ("texture")
// library (paper §4.1, Table 1): an over-complete set of candidate orbital
// slots, each with its spatiotemporal coverage over the geographic cell
// grid. Tracks that differ only in RAAN by a whole number of grid columns
// cover the same cells shifted east by that many columns, so they form a
// class that stores one packed row — 2 B an entry, a 12-bit gap to the
// previous column and the 4-bit hit count that, with its segment's footprint
// total, gives the value — and each track reads its class row through a View
// that applies its column shift in the track's own column order, so the
// synthesizer's matching pursuit scans candidate columns exactly as if every
// track had a row of its own.
package texture

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

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

	// The coverage matrix is track-major (Ãᵀ of the paper): track j's row over
	// the unfolded index space slot*m + cell is class row rows[views[j].row]
	// moved views[j].shift columns east (see View). Every value is hits/total
	// for a hit count of at most SubSamples and a slot's footprint total, so
	// fracs, indexed by a segment's base plus an entry's hits, stands for it
	// exactly.
	rows    []classRow
	views   []trackView
	lonCols int
	fracs   []float64
	nnz     int
	stored  int
}

// trackView is where a track's row is kept: its class row and the columns
// east it is moved by.
type trackView struct{ row, shift int32 }

// Row is one satellite's coverage over the unfolded index space slot*m +
// cell, packed as a library's class rows are: its covered columns in
// ascending order, cut into segments. A segment is a run of whole grid rows
// of one slot, all of whose values share the slot's base; an entry is one
// column, 2 B. A segment holds at most 4,096 entries: a gap wider than an
// entry holds, or a grid row the segment might not have room for, opens a
// new one. A scan walks segments, then their entries:
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
// where table is the value table the rows were built for (see ValueTable).
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
	top := 0
	for s := 0; s < slots; s++ {
		var base int
		r, base = appendSlot(r, ras, el, lam, s)
		top = max(top, base)
	}
	return r, top
}

// appendSlot appends to r slot s of a satellite on el, as AppendRow does,
// and returns r with the slot's base.
func appendSlot(r Row, ras *Rasterizer, el orbit.Elements, lam float64, s int) (Row, int) {
	m, lonCols := ras.grid.NumCells(), ras.grid.LonCols()
	cells, total := ras.Slot(el, lam, s)
	base := total*len(ras.offsets) - 1
	prev := -1 - maxGap // too far from any column: the slot's first opens a segment
	rowEnd := 0         // the column past prev's grid row
	for _, c := range cells {
		col := s*m + int(c)
		// A grid row opens a segment unless the segment has room for all of
		// it, so a row splits only if it is wider than a segment holds.
		if sg := len(r.Segs) - 1; col-prev <= maxGap && r.Segs[sg].Len() < maxSegEntries &&
			(col < rowEnd || r.Segs[sg].Len() <= maxSegEntries-lonCols) {
			r.Segs[sg].word++ // one entry more
			r.Entries = append(r.Entries, newEntry(col-prev, ras.Hits(c)))
		} else {
			r.Segs = append(r.Segs, newSegment(col, base, 1))
			r.Entries = append(r.Entries, newEntry(0, ras.Hits(c)))
		}
		if col >= rowEnd {
			rowEnd = col - int(c)%lonCols + lonCols
		}
		prev = col
	}
	return r, base
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

// Build enumerates candidates, sorts them into RAAN classes and computes each
// class's coverage in parallel.
//
// Raising a track's RAAN by Δ turns its orbit Δ east about the Earth's axis,
// and its ground track with it: at every instant the sub-satellite point keeps
// its latitude and moves Δ east. With the RAANs evenly spaced, tracks of one
// (spec, inclination, phase) whose RAANs differ by a multiple of 360°/K, K the
// greatest common divisor of the grid's columns and RAANs, therefore cover
// the same cells a whole number of columns apart, with the same hits and
// footprint totals. Build stores one row a class, and the tracks are views of
// it. It rasterizes each slot of the row as one track of the class: the one
// whose antimeridian lies opposite the ground track at mid-slot, so that the
// slot's footprints seldom wrap a grid row and a view reads few of its grid
// rows one by one. A configuration whose RAAN step is no whole number of
// columns has K = 1 and classes of one.
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
	lonCols := cfg.Grid.LonCols()
	if lonCols > maxLonCols {
		return nil, fmt.Errorf("texture: grid rows of %d columns, but a gap within one reaches %d", lonCols, maxLonCols-1)
	}
	size := gcd(lonCols, cfg.RAANs)               // tracks a class
	step, colStep := cfg.RAANs/size, lonCols/size // RAAN indices and columns between a class's tracks
	raanDeg := func(a int) float64 { return -180 + 360*float64(a)/float64(cfg.RAANs) }
	elements := func(c classKey) orbit.Elements {
		phase := 2 * 3.141592653589793 * float64(c.ph) / float64(cfg.Phases)
		return cfg.Specs[c.si].Elements(geom.Deg2Rad(cfg.InclinationsDeg[c.inc]), geom.Deg2Rad(raanDeg(int(c.raan))), phase)
	}
	n := len(cfg.Specs) * len(cfg.InclinationsDeg) * cfg.RAANs * cfg.Phases
	tracks, views := make([]Track, 0, n), make([]trackView, 0, n)
	// A class is keyed by its (spec, inclination, phase) and RAAN index modulo
	// step; first[key] is its row and the RAAN index of its first track.
	type class struct{ row, raan int32 }
	first := make([]class, len(cfg.Specs)*len(cfg.InclinationsDeg)*step*cfg.Phases)
	reps := make([]classKey, 0, len(first)) // each class row's first track
	for si, spec := range cfg.Specs {
		for ii, incDeg := range cfg.InclinationsDeg {
			for a := 0; a < cfg.RAANs; a++ {
				if cfg.Occupied != nil && cfg.Occupied(spec, incDeg, raanDeg(a)) {
					continue
				}
				for ph := 0; ph < cfg.Phases; ph++ {
					key := classKey{si: int32(si), inc: int32(ii), raan: int32(a), ph: int32(ph)}
					c := &first[((si*len(cfg.InclinationsDeg)+ii)*step+a%step)*cfg.Phases+ph]
					if c.row == 0 {
						reps = append(reps, key)
						*c = class{row: int32(len(reps)), raan: int32(a)}
					}
					views = append(views, trackView{row: c.row - 1, shift: int32(lonCols * (a - int(c.raan)) / cfg.RAANs)})
					tracks = append(tracks, Track{Spec: spec, Elements: elements(key)})
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
		views:       views,
		lonCols:     lonCols,
	}

	// A fixed pool of workers, each with its own rasterizer and row scratch,
	// takes classes off a shared counter and rasterizes them back to back
	// into the scratch, slot by slot as AppendRow does. When a row twice as
	// large as the largest so far might not fit, the rows held there are
	// copied out once, exactly sized, and filed as capacity-capped views of
	// that copy: the build's garbage is the workers' scratch. The grid rows
	// of every class row are indexed once all are built, into one array.
	lib.rows = make([]classRow, len(reps))
	offsets := make([]float64, cfg.SubSamples)
	for ss := range offsets {
		offsets[ss] = float64(ss) / float64(cfg.SubSamples)
	}
	workers := min(cfg.Parallelism, len(reps))
	rows := min(max(len(reps)/(16*workers), 4*minBatchRows), batchRows)
	maxBase := make([]int, workers)
	// turn returns which track of class key slot s is rasterized as: track q
	// of the class lies q·colStep columns east of the first, and its
	// antimeridian is opposite the first's ground track at mid-slot when
	// q·colStep is half a grid row less that track's column.
	turn := func(key classKey, s int) int {
		p := elements(key).SubSatellitePoint((float64(s) + 0.5) * cfg.SlotSeconds)
		return (lonCols - cfg.Grid.CellOf(p)%lonCols + lonCols/2 + colStep/2) / colStep % size
	}
	var next atomic.Int64
	next.Store(int64(workers))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ras := NewRasterizer(cfg.Grid, cfg.SlotSeconds, offsets)
			var scratch Row
			held := make([]heldRow, 0, rows)
			var maxSegs, maxEnts int // the largest row's
			flush := func() {
				segs := make([]classSeg, len(scratch.Segs))
				for i, sg := range scratch.Segs {
					segs[i].Segment = sg
				}
				ents := append(make([]Entry, 0, len(scratch.Entries)), scratch.Entries...)
				var s0, e0 int
				for _, h := range held {
					lib.rows[h.row] = classRow{segs: segs[s0:h.segs:h.segs], ents: ents[e0:h.ents:h.ents]}
					s0, e0 = h.segs, h.ents
				}
				scratch, held = Row{Segs: scratch.Segs[:0], Entries: scratch.Entries[:0]}, held[:0]
			}
			// Worker w starts on class w whenever it is scheduled, so the row
			// that sizes its scratch does not depend on that.
			for c := w; c < len(reps); c = int(next.Add(1)) - 1 {
				s0, e0 := len(scratch.Segs), len(scratch.Entries)
				key := reps[c]
				lam := cfg.Coverage.FootprintRadius(elements(key).Altitude())
				for s := range cfg.Slots {
					member := key
					member.raan = int32((int(key.raan) + turn(key, s)*step) % cfg.RAANs)
					var base int
					scratch, base = appendSlot(scratch, ras, elements(member), lam, s)
					maxBase[w] = max(maxBase[w], base)
				}
				held = append(held, heldRow{row: c, segs: len(scratch.Segs), ents: len(scratch.Entries)})
				maxSegs, maxEnts = max(maxSegs, len(scratch.Segs)-s0), max(maxEnts, len(scratch.Entries)-e0)
				scratch.Segs = reserve(scratch.Segs, maxSegs, rows)
				scratch.Entries = reserve(scratch.Entries, maxEnts, rows)
				if cap(scratch.Segs)-len(scratch.Segs) < 2*maxSegs || cap(scratch.Entries)-len(scratch.Entries) < 2*maxEnts {
					flush()
				}
			}
			flush()
		}()
	}
	wg.Wait()

	// The grid rows are spanned twice: into reused scratch to count them,
	// then into the one array that holds them.
	var spans []rowSpan
	gridRows := 0
	for i := range lib.rows {
		spans = lib.rows[i].spanGridRows(lonCols, spans[:0])
		gridRows += len(spans)
	}
	all := make([]rowSpan, 0, gridRows)
	for i := range lib.rows {
		from := len(all)
		all = lib.rows[i].spanGridRows(lonCols, all)
		lib.rows[i].rows = all[from:len(all):len(all)]
		for j := range lib.rows[i].segs {
			sg := &lib.rows[i].segs[j]
			sg.rot = uint16(turn(reps[i], int(sg.Col)/m) * colStep)
		}
	}

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
	lib.stored = checkClassRows(lib.rows, cfg.Slots*m, lonCols, cfg.SubSamples, len(lib.fracs))
	for _, v := range views {
		lib.nnz += len(lib.rows[v.row].ents)
	}
	return lib, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// reserve returns s, moved to an array with room for rows rows of n
// elements when it holds fewer than minBatchRows: the first row, or one far
// larger than any before it.
func reserve[T any](s []T, n, rows int) []T {
	if cap(s) < minBatchRows*n {
		return append(make([]T, 0, rows*n), s...)
	}
	return s
}

// A worker's scratch is sized for rows rows as large as the largest so far,
// rows a sixteenth of a worker's share of the classes from 4·minBatchRows to
// batchRows, and grows again only when it would hold fewer than
// minBatchRows: rows enough to an array that a build allocates seldom, few
// enough that the scratch is a small fraction of the matrix.
const batchRows, minBatchRows = 24, 2

// heldRow is a class row in a worker's scratch: where its segments and its
// entries end, from the previous one's.
type heldRow struct{ row, segs, ents int }

// classKey is a track's spec, inclination, RAAN and phase indices.
type classKey struct{ si, inc, raan, ph int32 }

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
	cells       []int32 // the cells the current slot's samples cover, ascending
	within      []int32 // one sample's footprint
	// cells and within grow to the largest slot's cells, hits is one per grid
	// cell: a rasterizer holds 4 B a grid cell and 8 B a covered one.
}

// NewRasterizer returns a rasterizer over grid that samples slot s at
// (s + offsets[i]) × slotSeconds.
func NewRasterizer(grid *geo.Grid, slotSeconds float64, offsets []float64) *Rasterizer {
	n := grid.NumCells()
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("texture: %d cells pass a 32-bit cell id", n))
	}
	return &Rasterizer{grid: grid, slotSeconds: slotSeconds, offsets: offsets, hits: make([]int32, n)}
}

// Slot samples the footprint (angular radius lam) of a satellite on el during
// slot s. It returns the covered cells in ascending order and the total of
// their Hits.
func (r *Rasterizer) Slot(el orbit.Elements, lam float64, s int) (cells []int32, total int) {
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
			lo, hi = min(lo, int(c)), max(hi, int(c))
		}
		total += len(r.within)
	}
	// The samples' union in ascending order is one scan of the id range they
	// touched, a slot's arc of grid rows: cheaper than sorting the union.
	for c := lo; c <= hi; c++ {
		if r.hits[c] != 0 {
			r.cells = append(r.cells, int32(c))
		}
	}
	return r.cells, total
}

// Hits returns at how many of the last Slot's sample instants cell was
// covered.
func (r *Rasterizer) Hits(cell int32) int { return int(r.hits[cell]) }

// NumTracks returns the number of candidate tracks.
func (l *Library) NumTracks() int { return len(l.Tracks) }

// UnfoldedLen returns slots × cells, the length of demand/residual vectors.
func (l *Library) UnfoldedLen() int { return l.Slots * l.Grid.NumCells() }

// TrackView returns track j's coverage over the flattened slot*m+cell space:
// its class row as track j reads it (see View). Its values index Fractions.
func (l *Library) TrackView(j int) View {
	v := l.views[j]
	return View{row: l.rows[v.row], shift: int(v.shift), lonCols: l.lonCols}
}

// Fractions returns the read-only value table of the rows' segments: entry
// base + hits is hits/total (see ValueTable).
func (l *Library) Fractions() []float64 { return l.fracs }

// TrackNNZ returns the number of (slot, cell) pairs track j covers.
func (l *Library) TrackNNZ(j int) int { return len(l.rows[l.views[j].row].ents) }

// StoredRows returns the number of class rows the library stores.
func (l *Library) StoredRows() int { return len(l.rows) }

// StoredEntries returns the number of entries the library stores, one per
// (slot, cell) pair a class row covers.
func (l *Library) StoredEntries() int { return l.stored }

// StoredBytes returns what the library's rows hold: 2 B a stored entry, a
// classSeg a segment and a rowSpan a grid row of it, three slice headers a
// class row, a view a track, and the value table.
func (l *Library) StoredBytes() int {
	n := 2*l.stored + 8*len(l.fracs) + len(l.views)*int(unsafe.Sizeof(trackView{}))
	for _, row := range l.rows {
		n += len(row.segs)*int(unsafe.Sizeof(classSeg{})) + len(row.rows)*int(unsafe.Sizeof(rowSpan{})) +
			3*int(unsafe.Sizeof([]Entry(nil)))
	}
	return n
}

// Supply accumulates the unfolded network supply Ã·x for integer satellite
// counts x (len NumTracks) into a dense vector of length UnfoldedLen.
func (l *Library) Supply(x []int) []float64 {
	if len(x) != len(l.Tracks) {
		panic("texture: Supply dimension mismatch")
	}
	out := make([]float64, l.UnfoldedLen())
	for j, xj := range x {
		if xj == 0 {
			continue
		}
		l.TrackView(j).AddTo(out, l.fracs, float64(xj))
	}
	return out
}

// NNZ returns the total coverage entries across all tracks, counting every
// track's row as if it were stored: the (track, slot, cell) triples covered.
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
