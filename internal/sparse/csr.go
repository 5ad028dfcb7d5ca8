// Package sparse implements the compressed sparse row (CSR) matrices the
// TinyLEO synthesizer uses to hold per-slot coverage matrices A_t and to
// accelerate the matching-pursuit inner products (paper §5: "our
// implementation encodes the LEO network supplies x, demands y_t, and
// coverage matrix A_t using compressed sparse row matrices").
package sparse

import "fmt"

// Matrix is an immutable CSR sparse matrix of float64 values.
type Matrix struct {
	rows, cols int
	rowPtr     []int64   // len rows+1
	colIdx     []int32   // len nnz
	vals       []float64 // len nnz
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// NNZ returns the number of stored (non-zero) entries.
func (m *Matrix) NNZ() int { return len(m.vals) }

// Row returns row i's stored entries as two aligned views into the matrix,
// column indices in increasing order and their values. The caller must not
// modify them.
func (m *Matrix) Row(i int) (cols []int32, vals []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi:hi], m.vals[lo:hi:hi]
}

// RowNNZ returns the number of stored entries in row i.
func (m *Matrix) RowNNZ(i int) int { return int(m.rowPtr[i+1] - m.rowPtr[i]) }

// MulVec computes y = M·x into dst (allocated if nil) and returns it.
func (m *Matrix) MulVec(x, dst []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("sparse: MulVec dim mismatch: %d vs %d", len(x), m.cols))
	}
	if dst == nil {
		dst = make([]float64, m.rows)
	}
	for i := 0; i < m.rows; i++ {
		s := 0.0
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.vals[k] * x[m.colIdx[k]]
		}
		dst[i] = s
	}
	return dst
}

// MulVecT computes y = Mᵀ·x into dst (allocated if nil) and returns it.
// This is the g = Aᵀr step of Algorithm 1.
func (m *Matrix) MulVecT(x, dst []float64) []float64 {
	if len(x) != m.rows {
		panic(fmt.Sprintf("sparse: MulVecT dim mismatch: %d vs %d", len(x), m.rows))
	}
	if dst == nil {
		dst = make([]float64, m.cols)
	} else {
		for i := range dst {
			dst[i] = 0
		}
	}
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			dst[m.colIdx[k]] += m.vals[k] * xi
		}
	}
	return dst
}

// VStack stacks matrices vertically (all must share the column count). This
// implements the paper's temporal unfolding Ã = [A₁; A₂; …; A_Tmax].
func VStack(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		return &Matrix{rowPtr: []int64{0}}
	}
	cols := ms[0].cols
	rows, nnz := 0, 0
	for _, m := range ms {
		if m.cols != cols {
			panic("sparse: VStack column mismatch")
		}
		rows += m.rows
		nnz += m.NNZ()
	}
	out := &Matrix{
		rows:   rows,
		cols:   cols,
		rowPtr: make([]int64, 1, rows+1),
		colIdx: make([]int32, 0, nnz),
		vals:   make([]float64, 0, nnz),
	}
	for _, m := range ms {
		base := out.rowPtr[len(out.rowPtr)-1]
		for i := 1; i <= m.rows; i++ {
			out.rowPtr = append(out.rowPtr, base+m.rowPtr[i])
		}
		out.colIdx = append(out.colIdx, m.colIdx...)
		out.vals = append(out.vals, m.vals...)
	}
	return out
}
