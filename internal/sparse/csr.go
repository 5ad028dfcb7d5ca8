// Package sparse implements the compressed sparse row (CSR) matrices the
// TinyLEO synthesizer uses to hold per-slot coverage matrices A_t and to
// accelerate the matching-pursuit inner products (paper §5: "our
// implementation encodes the LEO network supplies x, demands y_t, and
// coverage matrix A_t using compressed sparse row matrices").
package sparse

import "fmt"

// Matrix is an immutable CSR sparse matrix of float64 values. Its rows are
// capacity-capped views: several rows may share one backing array (a whole
// matrix from a Builder, a batch of tracks from the texture build), and
// nothing else is stored per row.
type Matrix struct {
	rows, cols, nnz int
	colIdx          [][]int32   // len rows; each strictly increasing
	vals            [][]float64 // len rows; aligned with colIdx
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// NNZ returns the number of stored (non-zero) entries.
func (m *Matrix) NNZ() int { return m.nnz }

// Row returns row i's stored entries as two aligned views into the matrix,
// column indices in increasing order and their values. The caller must not
// modify them.
func (m *Matrix) Row(i int) (cols []int32, vals []float64) {
	return m.colIdx[i], m.vals[i]
}

// RowNNZ returns the number of stored entries in row i.
func (m *Matrix) RowNNZ(i int) int { return len(m.colIdx[i]) }

// MulVec computes y = M·x into dst (allocated if nil) and returns it.
func (m *Matrix) MulVec(x, dst []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("sparse: MulVec dim mismatch: %d vs %d", len(x), m.cols))
	}
	if dst == nil {
		dst = make([]float64, m.rows)
	}
	for i, cols := range m.colIdx {
		vals := m.vals[i]
		s := 0.0
		for k, c := range cols {
			s += vals[k] * x[c]
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
	for i, cols := range m.colIdx {
		xi := x[i]
		if xi == 0 {
			continue
		}
		vals := m.vals[i]
		for k, c := range cols {
			dst[c] += vals[k] * xi
		}
	}
	return dst
}

// VStack stacks matrices vertically (all must share the column count). This
// implements the paper's temporal unfolding Ã = [A₁; A₂; …; A_Tmax]. The
// result shares its inputs' row storage.
func VStack(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		return &Matrix{}
	}
	out := &Matrix{cols: ms[0].cols}
	for _, m := range ms {
		if m.cols != out.cols {
			panic("sparse: VStack column mismatch")
		}
		out.rows += m.rows
		out.nnz += m.nnz
	}
	out.colIdx = make([][]int32, 0, out.rows)
	out.vals = make([][]float64, 0, out.rows)
	for _, m := range ms {
		out.colIdx = append(out.colIdx, m.colIdx...)
		out.vals = append(out.vals, m.vals...)
	}
	return out
}
