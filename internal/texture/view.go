package texture

import "fmt"

// classRow is a RAAN class's stored coverage over the unfolded index space
// slot*m + cell, packed as AppendRow packs a row, each slot as one track of
// the class sees it, with what a View needs to read it moved east. A segment spans whole grid rows of its slot;
// rows lists, segment by segment, each grid row's entries and the columns of
// its first and last within the grid row.
type classRow struct {
	segs []classSeg
	rows []rowSpan
	ents []Entry
}

// classSeg is a Segment of a class row, 16 B: the Segment, its number of
// grid rows, the least first and greatest last column of those rows within
// a grid row, and rot: its slot was rasterized as the track of the class
// rot columns east of the first.
type classSeg struct {
	Segment
	rows, lo, hi, rot uint16
}

// rowSpan is one grid row of a class row's segment, 6 B: its number of
// entries, and the columns of its first and last entry within the grid row.
type rowSpan struct{ n, first, last uint16 }

// maxLonCols is the most columns a grid row of a class row can have: an
// in-row gap is at most maxGap, and a rowSpan's fields count to it.
const maxLonCols = maxGap + 1

// spanGridRows sets the count and columns of grid rows, of lonCols columns,
// of each of r's segments, and returns spans with their rowSpans appended.
func (r *classRow) spanGridRows(lonCols int, spans []rowSpan) []rowSpan {
	ents := r.ents
	for i := range r.segs {
		sg := &r.segs[i]
		k, end, rows := int(sg.Col), -1, 0
		for _, e := range ents[:sg.Len()] {
			k += e.Gap()
			in := uint16(k % lonCols)
			if k >= end {
				if end < 0 {
					sg.lo, sg.hi = in, in
				}
				end = k - int(in) + lonCols
				spans = append(spans, rowSpan{first: in})
				rows++
				sg.lo = min(sg.lo, in)
			}
			sp := &spans[len(spans)-1]
			sp.n++
			sp.last = in
			sg.hi = max(sg.hi, in)
		}
		sg.rows = uint16(rows)
		ents = ents[sg.Len():]
	}
	return spans
}

// checkClassRows panics unless every row is well formed — its segments' entry
// and grid-row counts adding up to its entries and grid rows, each segment's
// rot inside a grid row and its first entry of gap 0 in a grid row past the
// previous segment's last column, every later gap at least 1, every column
// inside [0, cols), the grid rows of lonCols columns each, their first and
// last columns and entry counts as recorded, every hit count at most sub,
// and every segment's Values inside a table of tableLen values — and returns
// the number of entries. The rows are built this way, so a failure is a bug
// in the build.
func checkClassRows(rows []classRow, cols, lonCols, sub, tableLen int) int {
	nnz := 0
	for i, row := range rows {
		ents, spans, k := row.ents, row.rows, -1
		for n, sg := range row.segs {
			switch {
			case sg.Len() > len(ents) || int(sg.rows) > len(spans) || sg.rows == 0:
				panic(fmt.Sprintf("texture: class row %d segment %d counts %d of %d entries and %d of %d grid rows left",
					i, n, sg.Len(), len(ents), sg.rows, len(spans)))
			case int(sg.Col) <= k:
				panic(fmt.Sprintf("texture: class row %d segment %d opens at col %d, not past %d", i, n, sg.Col, k))
			case k >= 0 && int(sg.Col)/lonCols == k/lonCols:
				panic(fmt.Sprintf("texture: class row %d segment %d opens at col %d, in the grid row of col %d", i, n, sg.Col, k))
			case int(sg.rot) >= lonCols:
				panic(fmt.Sprintf("texture: class row %d segment %d turned %d of %d columns", i, n, sg.rot, lonCols))
			case sg.Base()+1+MaxSubSamples > tableLen:
				panic(fmt.Sprintf("texture: class row %d segment %d base %d outside a table of %d", i, n, sg.Base(), tableLen))
			}
			k = int(sg.Col)
			lo, hi, counted := lonCols, -1, 0
			for x, sp := range spans[:sg.rows] {
				if sp.n == 0 || counted+int(sp.n) > sg.Len() {
					panic(fmt.Sprintf("texture: class row %d segment %d grid row %d counts %d of %d entries left",
						i, n, x, sp.n, sg.Len()-counted))
				}
				for y, e := range ents[counted : counted+int(sp.n)] {
					k += e.Gap()
					in := k % lonCols
					switch {
					case counted+y == 0 && e.Gap() != 0:
						panic(fmt.Sprintf("texture: class row %d segment %d opens with gap %d", i, n, e.Gap()))
					case counted+y > 0 && e.Gap() == 0:
						panic(fmt.Sprintf("texture: class row %d not strictly increasing in segment %d", i, n))
					case k < 0 || k >= cols:
						panic(fmt.Sprintf("texture: class row %d col %d out of range [0,%d)", i, k, cols))
					case y == 0 && in != int(sp.first), y > 0 && k/lonCols != (k-e.Gap())/lonCols:
						panic(fmt.Sprintf("texture: class row %d segment %d grid row %d does not open at col %d", i, n, x, k))
					case y == int(sp.n)-1 && in != int(sp.last):
						panic(fmt.Sprintf("texture: class row %d segment %d grid row %d does not close at col %d", i, n, x, k))
					case e.Hits() > sub:
						panic(fmt.Sprintf("texture: class row %d col %d has %d hits of %d sub-samples", i, k, e.Hits(), sub))
					}
				}
				counted += int(sp.n)
				lo, hi = min(lo, int(sp.first)), max(hi, int(sp.last))
			}
			if counted != sg.Len() || lo != int(sg.lo) || hi != int(sg.hi) {
				panic(fmt.Sprintf("texture: class row %d segment %d: %d entries in columns %d to %d, recorded %d in %d to %d",
					i, n, counted, lo, hi, sg.Len(), sg.lo, sg.hi))
			}
			ents, spans = ents[sg.Len():], spans[sg.rows:]
			nnz += sg.Len()
		}
		if len(ents) != 0 || len(spans) != 0 {
			panic(fmt.Sprintf("texture: class row %d has %d entries and %d grid rows past its segments", i, len(ents), len(spans)))
		}
	}
	return nnz
}

// View is one track's coverage over the unfolded index space slot*m + cell:
// its class row moved east within every grid row, wrapping at the
// antimeridian, shift columns east of the class's first track. A segment
// rasterized rot columns east of that track moves d = shift − rot columns
// (modulo lonCols), and a stored grid row's entries from column cut =
// lonCols − d on wrap to its west end, so in column order they come before
// the rest.
type View struct {
	row            classRow
	shift, lonCols int
}

// Walk reads a View in column order, one piece at a time. After Next, the
// piece's entries are Entries, valued by Vals, and Start is the column their
// gaps run from:
//
//	w := view.Walk(table)
//	for w.Next() {
//		k := w.Start
//		for _, e := range w.Entries {
//			k += e.Gap()
//			... w.Vals.Of(e) at column k ...
//		}
//	}
//
// A segment all of whose grid rows lie on one side of the cut is one piece;
// another is read grid row by grid row, consecutive rows on one side in one
// piece, and a row that straddles the cut in two, its part past the cut
// first.
type Walk struct {
	Entries []Entry
	Start   int
	Vals    *Values

	segs           []classSeg // not yet read
	rows           []rowSpan
	ents           []Entry
	table          []float64
	shift, lonCols int
	d, cut         int // the current segment's columns moved, and its cut
	// The rest of a segment read row by row: its grid rows, their entries
	// and the column of the entry before them; and a straddling row's part
	// before the cut, read next.
	segRows []rowSpan
	segEnts []Entry
	pre     int
	rest    []Entry
	restK   int
}

// Walk returns a Walk over v whose values are read from table.
func (v View) Walk(table []float64) Walk {
	return Walk{segs: v.row.segs, rows: v.row.rows, ents: v.row.ents, table: table, shift: v.shift, lonCols: v.lonCols}
}

// Next moves to the next piece and reports whether there is one.
func (w *Walk) Next() bool {
	switch {
	case len(w.rest) > 0:
		w.Entries, w.Start, w.rest = w.rest, w.restK, nil
		return true
	case len(w.segRows) > 0:
		w.gridRows()
		return true
	case len(w.segs) == 0:
		return false
	}
	sg := w.segs[0]
	es, rows := w.ents[:sg.Len()], w.rows[:sg.rows]
	w.segs, w.ents, w.rows = w.segs[1:], w.ents[sg.Len():], w.rows[sg.rows:]
	w.Vals = sg.Values(w.table)
	if w.d = w.shift - int(sg.rot); w.d < 0 {
		w.d += w.lonCols
	}
	w.cut = w.lonCols - w.d
	switch {
	case int(sg.hi) < w.cut:
		w.Entries, w.Start = es, int(sg.Col)+w.d
	case int(sg.lo) >= w.cut:
		w.Entries, w.Start = es, int(sg.Col)+w.d-w.lonCols
	default:
		w.segRows, w.segEnts, w.pre = rows, es, int(sg.Col)
		w.gridRows()
	}
	return true
}

// gridRows moves to the next piece of a segment read row by row.
func (w *Walk) gridRows() {
	from, n, off := w.pre, 0, 0 // the piece so far: segEnts[:n], read from from+off
	for len(w.segRows) > 0 {
		sp := w.segRows[0]
		es := w.segEnts[n : n+int(sp.n)]
		first := w.pre + es[0].Gap() // the row's first column
		side := w.d
		switch {
		case int(sp.last) < w.cut:
		case int(sp.first) >= w.cut:
			side -= w.lonCols
		case n > 0:
			// A straddling row: the piece ends before it.
			w.Entries, w.Start, w.segEnts = w.segEnts[:n], from+off, w.segEnts[n:]
			return
		default:
			x, c := split(es, int(sp.first), w.cut)
			w.Entries, w.Start = es[x:], first-int(sp.first)+c+side-w.lonCols
			w.rest, w.restK = es[:x], w.pre+side
			w.segRows, w.segEnts, w.pre = w.segRows[1:], w.segEnts[sp.n:], first+int(sp.last)-int(sp.first)
			return
		}
		if n > 0 && side != off {
			break
		}
		off, n = side, n+int(sp.n)
		w.segRows, w.pre = w.segRows[1:], first+int(sp.last)-int(sp.first)
	}
	w.Entries, w.Start, w.segEnts = w.segEnts[:n], from+off, w.segEnts[n:]
}

// split returns the index x of the first of a grid row's entries es at or
// past column cut, and the column of the entry before it; first is the
// column of es[0], which lies before the cut.
func split(es []Entry, first, cut int) (x, c int) {
	x, c = 1, first
	for c+es[x].Gap() < cut {
		c += es[x].Gap()
		x++
	}
	return x, c
}

// Score returns how much of residual one satellite on v would satisfy,
// Σ min(v_k, r_k), together with Σ v_k·r_k and Σ v_k², each taken over the
// columns k whose residual r_k is positive and summed in column order, v_k
// the view's values read from table: the sparsifier's score of a track and
// the exact solver's branching rule. It is a function of its own so that the
// piece and entry loops have the registers to themselves.
func Score(v View, table, residual []float64) (satisfiable, dot, norm2 float64) {
	w := v.Walk(table) // outside the loop: a for clause's variable is copied every iteration
	for w.Next() {
		k, vals := w.Start, w.Vals
		for _, e := range w.Entries {
			k += e.Gap()
			r := residual[k]
			if r <= 0 {
				continue
			}
			x := vals.Of(e)
			if x < r {
				satisfiable += x
			} else {
				satisfiable += r
			}
			dot += x * r
			norm2 += x * x
		}
	}
	return satisfiable, dot, norm2
}

// AddTo adds w times v's values, read from table, to out at their columns
// (w = −1 subtracts them exactly). A view covers a column once, so the order
// of the additions does not matter: AddTo reads the class row as stored, a
// segment on one side of the cut in one loop and another grid row by grid
// row, a row that straddles the cut in two.
func (v View) AddTo(out, table []float64, w float64) {
	ents, rows := v.row.ents, v.row.rows
	for _, sg := range v.row.segs {
		es, spans, vals := ents[:sg.Len()], rows[:sg.rows], sg.Values(table)
		ents, rows = ents[sg.Len():], rows[sg.rows:]
		d := v.shift - int(sg.rot)
		if d < 0 {
			d += v.lonCols
		}
		cut, west := v.lonCols-d, d-v.lonCols
		k := int(sg.Col) // the column of the entry before es[0], whose gap is 0
		switch {
		case int(sg.hi) < cut:
			addEntries(out, es, k+d, vals, w)
			continue
		case int(sg.lo) >= cut:
			addEntries(out, es, k+west, vals, w)
			continue
		}
		for _, sp := range spans {
			row := es[:sp.n]
			es = es[sp.n:]
			first := k + row[0].Gap()
			switch {
			case int(sp.last) < cut:
				addEntries(out, row, k+d, vals, w)
			case int(sp.first) >= cut:
				addEntries(out, row, k+west, vals, w)
			default:
				x, c := split(row, int(sp.first), cut)
				addEntries(out, row[:x], k+d, vals, w)
				addEntries(out, row[x:], first-int(sp.first)+c+west, vals, w)
			}
			k = first + int(sp.last) - int(sp.first)
		}
	}
}

// addEntries adds w times the values of es, read from vals, to out at the
// columns their gaps run to from k.
func addEntries(out []float64, es []Entry, k int, vals *Values, w float64) {
	for _, e := range es {
		k += e.Gap()
		out[k] += w * vals.Of(e)
	}
}
