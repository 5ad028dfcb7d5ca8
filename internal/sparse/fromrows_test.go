package sparse

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func TestFromRows(t *testing.T) {
	m := FromRows(3, 4,
		[][]int32{{0, 2}, nil, {1, 3}},
		[][]float64{{1, 2}, nil, {3, 4}},
	)
	want := [][]float64{{1, 0, 2, 0}, {0, 0, 0, 0}, {0, 3, 0, 4}}
	if !reflect.DeepEqual(m.ToDense(), want) {
		t.Errorf("FromRows = %v", m.ToDense())
	}
	if m.NNZ() != 4 {
		t.Errorf("nnz = %d", m.NNZ())
	}
}

func TestFromRowsPanics(t *testing.T) {
	check := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	check("row count", func() { FromRows(2, 2, [][]int32{{0}}, [][]float64{{1}}) })
	check("len mismatch", func() { FromRows(1, 2, [][]int32{{0, 1}}, [][]float64{{1}}) })
	check("unsorted", func() { FromRows(1, 3, [][]int32{{2, 1}}, [][]float64{{1, 2}}) })
	check("dup col", func() { FromRows(1, 3, [][]int32{{1, 1}}, [][]float64{{1, 2}}) })
	check("col range", func() { FromRows(1, 2, [][]int32{{5}}, [][]float64{{1}}) })
}

// batchRows cuts rows of the given lengths out of one pair of arrays, the way
// the texture build files a batch of tracks: row i's entries follow row i-1's
// in the same backing array, with no capacity cap of their own.
func batchRows(rng *rand.Rand, cols int, lens ...int) ([][]int32, [][]float64) {
	total := 0
	for _, n := range lens {
		total += n
	}
	idx, val := make([]int32, 0, total), make([]float64, 0, total)
	colIdx, vals := make([][]int32, len(lens)), make([][]float64, len(lens))
	for i, n := range lens {
		start := len(idx)
		for _, c := range rng.Perm(cols)[:n] {
			idx = append(idx, int32(c))
			val = append(val, rng.NormFloat64())
		}
		slices.Sort(idx[start:])
		colIdx[i], vals[i] = idx[start:], val[start:]
	}
	return colIdx, vals
}

// TestFromRowsAdopts: the matrix is the caller's rows, not a copy of them, so
// assembling it allocates the same however many entries they hold.
func TestFromRowsAdopts(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	allocs := func(lens ...int) float64 {
		colIdx, vals := batchRows(rng, 4096, lens...)
		m := FromRows(len(lens), 4096, colIdx, vals)
		for i := range lens {
			c, v := m.Row(i)
			if len(c) != lens[i] || (len(c) > 0 && (&c[0] != &colIdx[i][0] || &v[0] != &vals[i][0])) {
				t.Fatalf("row %d of %v is not the caller's slice", i, lens)
			}
		}
		return testing.AllocsPerRun(10, func() { FromRows(len(lens), 4096, colIdx, vals) })
	}
	small, large := allocs(3, 0, 2, 1), allocs(4000, 0, 3000, 4096)
	if small != large || large > 1 {
		t.Errorf("FromRows allocates %v times for 6 entries and %v for 11,096; want the matrix header both times", small, large)
	}
}

// TestRowViewsAreCapped: rows that share a backing array are handed out with
// no spare capacity, so an append to one reallocates and cannot write into
// the next.
func TestRowViewsAreCapped(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	colIdx, vals := batchRows(rng, 50, 4, 0, 5, 3)
	byBuilder := randMatrix(rng, 6, 9, 0.4)
	for name, m := range map[string]*Matrix{"FromRows": FromRows(4, 50, colIdx, vals), "Builder": byBuilder, "VStack": VStack(byBuilder, byBuilder)} {
		before := m.ToDense()
		for i := 0; i < m.Rows(); i++ {
			c, v := m.Row(i)
			if cap(c) != len(c) || cap(v) != len(v) {
				t.Errorf("%s row %d: len %d cap %d/%d", name, i, len(c), cap(c), cap(v))
			}
			_, _ = append(c, 0), append(v, 99)
		}
		if !reflect.DeepEqual(m.ToDense(), before) {
			t.Errorf("%s: appending to row views changed the matrix", name)
		}
	}
}

// TestRowViewMatricesAgainstDense repeats the dense cross-checks on matrices
// whose rows are adopted batch views, empty rows and the empty matrix
// included, alone and stacked with Builder-made ones.
func TestRowViewMatricesAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const cols = 17
	empty := FromRows(0, cols, nil, nil)
	if empty.Rows() != 0 || empty.NNZ() != 0 || len(empty.ToDense()) != 0 || len(empty.MulVec(make([]float64, cols), nil)) != 0 {
		t.Errorf("empty matrix: %d rows, nnz %d", empty.Rows(), empty.NNZ())
	}
	if got := empty.MulVecT(nil, nil); !reflect.DeepEqual(got, make([]float64, cols)) {
		t.Errorf("empty matrix MulVecT = %v", got)
	}
	for trial := 0; trial < 20; trial++ {
		lens := make([]int, 1+rng.Intn(8))
		nnz := 0
		for i := range lens {
			if rng.Intn(3) > 0 {
				lens[i] = rng.Intn(cols + 1)
			}
			nnz += lens[i]
		}
		colIdx, vals := batchRows(rng, cols, lens...)
		m := FromRows(len(lens), cols, colIdx, vals)
		if m.NNZ() != nnz {
			t.Fatalf("trial %d: nnz %d, want %d", trial, m.NNZ(), nnz)
		}
		mid := randMatrix(rng, 3, cols, 0.3)
		stacked := VStack(m, empty, mid, m)
		wantStacked := slices.Concat(m.ToDense(), mid.ToDense(), m.ToDense())
		if stacked.Rows() != 2*m.Rows()+3 || stacked.NNZ() != 2*nnz+mid.NNZ() || !reflect.DeepEqual(stacked.ToDense(), wantStacked) {
			t.Fatalf("trial %d: VStack of row-view matrices = %v, want %v", trial, stacked.ToDense(), wantStacked)
		}
		for _, mat := range []*Matrix{m, stacked} {
			d := mat.ToDense()
			for i, n := range lens {
				if mat.RowNNZ(i) != n {
					t.Fatalf("trial %d: row %d nnz %d, want %d", trial, i, mat.RowNNZ(i), n)
				}
			}
			x, xt := make([]float64, cols), make([]float64, mat.Rows())
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			for i := range xt {
				xt[i] = rng.NormFloat64()
			}
			if !vecApprox(mat.MulVec(x, nil), denseMulVec(d, x), 1e-9) {
				t.Fatalf("trial %d: MulVec mismatch", trial)
			}
			wantT := make([]float64, cols)
			for i, row := range d {
				for j, v := range row {
					wantT[j] += v * xt[i]
				}
			}
			if !vecApprox(mat.MulVecT(xt, nil), wantT, 1e-9) {
				t.Fatalf("trial %d: MulVecT mismatch", trial)
			}
		}
	}
}
