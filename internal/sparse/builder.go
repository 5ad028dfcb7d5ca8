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
		rowPtr: make([]int64, b.rows+1),
	}
	m.colIdx = make([]int32, 0, len(b.entries))
	m.vals = make([]float64, 0, len(b.entries))
	for k := 0; k < len(b.entries); {
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
		m.colIdx = append(m.colIdx, e.col)
		m.vals = append(m.vals, v)
		m.rowPtr[e.row+1] = int64(len(m.vals))
	}
	// Fill row pointers for empty rows.
	for i := 1; i <= b.rows; i++ {
		if m.rowPtr[i] < m.rowPtr[i-1] {
			m.rowPtr[i] = m.rowPtr[i-1]
		}
	}
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
