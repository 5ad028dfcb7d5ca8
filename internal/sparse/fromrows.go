package sparse

import "fmt"

// FromRows makes a CSR matrix of per-row column index and value slices
// without copying them: the matrix adopts colIdx, vals and every row in
// them, capping each row's capacity at its length, and the caller must not
// touch any of them afterwards. Each colIdx[i] must be strictly increasing
// and aligned with vals[i]. The texture library's coverage rows, produced
// already sorted, become its matrix this way.
func FromRows(rows, cols int, colIdx [][]int32, vals [][]float64) *Matrix {
	if len(colIdx) != rows || len(vals) != rows {
		panic(fmt.Sprintf("sparse: FromRows got %d/%d rows, want %d", len(colIdx), len(vals), rows))
	}
	m := &Matrix{rows: rows, cols: cols, colIdx: colIdx, vals: vals}
	for i, row := range colIdx {
		n := len(row)
		if n != len(vals[i]) {
			panic("sparse: FromRows row length mismatch")
		}
		prev := int32(-1)
		for k, c := range row {
			if c < 0 || int(c) >= cols {
				panic(fmt.Sprintf("sparse: FromRows col %d out of range [0,%d)", c, cols))
			}
			if c <= prev {
				panic(fmt.Sprintf("sparse: FromRows row %d not strictly increasing at %d", i, k))
			}
			prev = c
		}
		colIdx[i], vals[i] = row[:n:n], vals[i][:n:n]
		m.nnz += n
	}
	return m
}
