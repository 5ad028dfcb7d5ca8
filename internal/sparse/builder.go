package sparse

import (
	"fmt"
	"sort"
)

// Builder accumulates (row, col, value) triplets and assembles a CSR
// Matrix. Duplicate coordinates are summed, zero results are kept (callers
// that need pruning can use BuildPruned).
type Builder struct {
	rows, cols int
	entries    []entry
}

type entry struct {
	row, col int32
	val      float64
}

// NewBuilder creates a builder for an rows×cols matrix.
func NewBuilder(rows, cols int) *Builder {
	if rows < 0 || cols < 0 {
		panic("sparse: negative dimension")
	}
	return &Builder{rows: rows, cols: cols}
}

// Set records value v at (i, j). Multiple sets at the same coordinate sum.
func (b *Builder) Set(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: Set(%d,%d) out of %dx%d", i, j, b.rows, b.cols))
	}
	b.entries = append(b.entries, entry{int32(i), int32(j), v})
}

// NNZPending returns the number of recorded triplets (before dedup).
func (b *Builder) NNZPending() int { return len(b.entries) }

// Build assembles the CSR matrix, summing duplicates.
func (b *Builder) Build() *Matrix { return b.build(false) }

// BuildPruned assembles the CSR matrix, summing duplicates and dropping
// entries that sum to exactly zero.
func (b *Builder) BuildPruned() *Matrix { return b.build(true) }

func (b *Builder) build(prune bool) *Matrix {
	sort.Slice(b.entries, func(x, y int) bool {
		ex, ey := b.entries[x], b.entries[y]
		if ex.row != ey.row {
			return ex.row < ey.row
		}
		return ex.col < ey.col
	})
	m := &Matrix{
		rows:   b.rows,
		cols:   b.cols,
		colIdx: make([][]int32, b.rows),
		vals:   make([][]float64, b.rows),
	}
	// Both arrays have room for every entry, so the appends below never move
	// them and a row's view stays valid once filed.
	colIdx := make([]int32, 0, len(b.entries))
	vals := make([]float64, 0, len(b.entries))
	k := 0
	for i := range m.colIdx {
		lo := len(vals)
		for k < len(b.entries) && int(b.entries[k].row) == i {
			e := b.entries[k]
			v := e.val
			k++
			for k < len(b.entries) && b.entries[k].row == e.row && b.entries[k].col == e.col {
				v += b.entries[k].val
				k++
			}
			if prune && v == 0 {
				continue
			}
			colIdx = append(colIdx, e.col)
			vals = append(vals, v)
		}
		hi := len(vals)
		m.colIdx[i], m.vals[i] = colIdx[lo:hi:hi], vals[lo:hi:hi]
	}
	m.nnz = len(vals)
	return m
}

// FromDense builds a CSR matrix from a dense row-major [][]float64,
// skipping zeros. Intended for tests and small examples.
func FromDense(d [][]float64) *Matrix {
	rows := len(d)
	cols := 0
	if rows > 0 {
		cols = len(d[0])
	}
	b := NewBuilder(rows, cols)
	for i, row := range d {
		if len(row) != cols {
			panic("sparse: ragged dense input")
		}
		for j, v := range row {
			if v != 0 {
				b.Set(i, j, v)
			}
		}
	}
	return b.Build()
}

// ToDense expands the matrix to dense form. Intended for tests.
func (m *Matrix) ToDense() [][]float64 {
	d := make([][]float64, m.rows)
	for i := range d {
		d[i] = make([]float64, m.cols)
		cols, vals := m.Row(i)
		for k, j := range cols {
			d[i][j] = vals[k]
		}
	}
	return d
}
