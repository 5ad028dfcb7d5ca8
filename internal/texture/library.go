// Package texture builds TinyLEO's Earth-repeat ground-track ("texture")
// library (paper §4.1, Table 1): an over-complete set of candidate orbital
// slots, each with its spatiotemporal coverage over the geographic cell
// grid, stored track-major in CSR form so the synthesizer's matching
// pursuit can scan candidate columns in parallel.
package texture

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/orbit"
	"repro/internal/sparse"
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

	// mat is track-major: mat[j] is track j's coverage row over the
	// unfolded index space slot*m + cell (i.e. Ãᵀ of the paper).
	mat *sparse.Matrix
}

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
	// the scratch. Before the next row might not fit, the rows held there are
	// copied out once, exactly sized, and filed as views of that copy, which
	// the matrix adopts: the build's garbage is the workers' scratch.
	m := cfg.Grid.NumCells()
	rows := make([][]int32, len(tracks))
	vals := make([][]float64, len(tracks))
	offsets := make([]float64, cfg.SubSamples)
	for ss := range offsets {
		offsets[ss] = float64(ss) / float64(cfg.SubSamples)
	}
	workers := min(cfg.Parallelism, len(tracks))
	var next atomic.Int64
	next.Store(int64(workers))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ras := NewRasterizer(cfg.Grid, cfg.SlotSeconds, offsets)
			var cols []int32
			var fracs []float64
			var held []heldRow
			flush := func() {
				idx := append(make([]int32, 0, len(cols)), cols...)
				frac := append(make([]float64, 0, len(fracs)), fracs...)
				start := 0
				for _, h := range held {
					rows[h.track], vals[h.track] = idx[start:h.end], frac[start:h.end]
					start = h.end
				}
				cols, fracs, held = cols[:0], fracs[:0], held[:0]
			}
			// Worker w starts on track w whenever it is scheduled, so the row
			// that sizes its scratch does not depend on that.
			for j := w; j < len(tracks); j = int(next.Add(1)) - 1 {
				start := len(cols)
				cols, fracs = appendCoverageRow(cols, fracs, ras, cfg, tracks[j].Elements, m)
				held = append(held, heldRow{track: j, end: len(cols)})
				n := len(cols) - start
				if cap(cols) < minBatchRows*n {
					// The first row, or one far larger than any before it:
					// room for a batch of its like, made at once.
					cols = append(make([]int32, 0, batchRows*n), cols...)
					fracs = append(make([]float64, 0, batchRows*n), fracs...)
				}
				if cap(cols)-len(cols) < 2*n {
					flush()
				}
			}
			flush()
		}()
	}
	wg.Wait()

	// The rows are sorted by construction; FromRows checks that and keeps them.
	lib.mat = sparse.FromRows(len(tracks), cfg.Slots*m, rows, vals)
	return lib, nil
}

// A worker's scratch is sized for batchRows rows like the one that made it
// grow, and grows again only when it would hold fewer than minBatchRows: rows
// enough to an array that a build allocates seldom, few enough that the
// scratch is a small fraction of the matrix.
const batchRows, minBatchRows = 24, 4

// heldRow is a track's row in a worker's scratch, from the previous one's end.
type heldRow struct{ track, end int }

// appendCoverageRow appends one track's unfolded coverage to cols and fracs:
// sorted column indices slot*m+cell with fractional values. Per the paper's
// supply model, A_t(i,j) is the fraction of satellite j's radio-link capacity
// over cell i, so each satellite's coverage sums to 1 per slot (its capacity
// is one satellite unit regardless of footprint size): a wide footprint
// spreads capacity thinner, it does not multiply it.
func appendCoverageRow(cols []int32, fracs []float64, ras *Rasterizer, cfg Config, el orbit.Elements, m int) ([]int32, []float64) {
	lam := cfg.Coverage.FootprintRadius(el.Altitude())
	for s := 0; s < cfg.Slots; s++ {
		cells, total := ras.Slot(el, lam, s)
		for _, c := range cells {
			cols = append(cols, int32(s*m+c))
			fracs = append(fracs, float64(ras.Hits(c))/float64(total))
		}
	}
	return cols, fracs
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

// TrackCoverage iterates track j's stored coverage entries as
// (slot, cell, fraction) triples.
func (l *Library) TrackCoverage(j int, f func(slot, cell int, frac float64)) {
	m := l.Grid.NumCells()
	idx, frac := l.mat.Row(j)
	for i, k := range idx {
		f(int(k)/m, int(k)%m, frac[i])
	}
}

// TrackRow returns track j's coverage over the flattened slot*m+cell space
// as two aligned read-only views: ascending indices and their fractions.
func (l *Library) TrackRow(j int) (idx []int32, frac []float64) {
	return l.mat.Row(j)
}

// TrackNNZ returns the number of (slot, cell) pairs track j covers.
func (l *Library) TrackNNZ(j int) int { return l.mat.RowNNZ(j) }

// Supply accumulates the unfolded network supply Ã·x for integer satellite
// counts x (len NumTracks) into a dense vector of length UnfoldedLen.
func (l *Library) Supply(x []int) []float64 {
	if len(x) != len(l.Tracks) {
		panic("texture: Supply dimension mismatch")
	}
	out := make([]float64, l.UnfoldedLen())
	for j, n := range x {
		if n == 0 {
			continue
		}
		fn := float64(n)
		idx, frac := l.mat.Row(j)
		for i, k := range idx {
			out[k] += fn * frac[i]
		}
	}
	return out
}

// NNZ returns the total stored coverage entries across all tracks.
func (l *Library) NNZ() int { return l.mat.NNZ() }

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
