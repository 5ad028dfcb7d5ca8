package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func randMatrix(rng *rand.Rand, rows, cols int, density float64) *Matrix {
	b := NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				b.Set(i, j, rng.NormFloat64())
			}
		}
	}
	return b.Build()
}

func denseMulVec(d [][]float64, x []float64) []float64 {
	out := make([]float64, len(d))
	for i, row := range d {
		for j, v := range row {
			out[i] += v * x[j]
		}
	}
	return out
}

func vecApprox(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// at looks (i, j) up through the row view; 0 when nothing is stored there.
func at(m *Matrix, i, j int) float64 {
	cols, vals := m.Row(i)
	for k, c := range cols {
		if int(c) == j {
			return vals[k]
		}
	}
	return 0
}

func TestBuildAndAt(t *testing.T) {
	b := NewBuilder(3, 4)
	b.Set(0, 1, 2)
	b.Set(2, 3, -1)
	b.Set(1, 0, 5)
	b.Set(0, 1, 3) // duplicate sums -> 5
	m := b.Build()
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("dims %dx%d", m.Rows(), m.Cols())
	}
	if m.NNZ() != 3 {
		t.Fatalf("nnz = %d", m.NNZ())
	}
	if at(m, 0, 1) != 5 || at(m, 1, 0) != 5 || at(m, 2, 3) != -1 {
		t.Errorf("wrong values: %v %v %v", at(m, 0, 1), at(m, 1, 0), at(m, 2, 3))
	}
	if at(m, 0, 0) != 0 || at(m, 2, 0) != 0 {
		t.Errorf("phantom values")
	}
}

func TestBuildPruned(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Set(0, 0, 1)
	b.Set(0, 0, -1)
	b.Set(1, 1, 2)
	m := b.BuildPruned()
	if m.NNZ() != 1 {
		t.Errorf("pruned nnz = %d", m.NNZ())
	}
	if at(m, 1, 1) != 2 {
		t.Errorf("surviving value wrong")
	}
}

func TestEmptyMatrix(t *testing.T) {
	m := NewBuilder(5, 7).Build()
	if m.NNZ() != 0 {
		t.Fatal("empty should have 0 nnz")
	}
	y := m.MulVec(make([]float64, 7), nil)
	for _, v := range y {
		if v != 0 {
			t.Fatal("empty MulVec nonzero")
		}
	}
	for i := 0; i < 5; i++ {
		if m.RowNNZ(i) != 0 {
			t.Fatal("empty row nnz nonzero")
		}
	}
}

func TestDenseRoundTrip(t *testing.T) {
	d := [][]float64{{1, 0, 2}, {0, 0, 0}, {0, -3, 4}}
	m := FromDense(d)
	if got := m.ToDense(); !reflect.DeepEqual(got, d) {
		t.Errorf("roundtrip = %v", got)
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		rows, cols := 1+rng.Intn(20), 1+rng.Intn(20)
		m := randMatrix(rng, rows, cols, 0.3)
		d := m.ToDense()
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		if !vecApprox(m.MulVec(x, nil), denseMulVec(d, x), 1e-9) {
			t.Fatalf("MulVec mismatch trial %d", trial)
		}
	}
}

func TestMulVecTAgainstTransposeDense(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30; trial++ {
		rows, cols := 1+rng.Intn(20), 1+rng.Intn(20)
		m := randMatrix(rng, rows, cols, 0.3)
		x := make([]float64, rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		d := m.ToDense()
		dt := make([][]float64, cols)
		for j := range dt {
			dt[j] = make([]float64, rows)
			for i := range d {
				dt[j][i] = d[i][j]
			}
		}
		want := denseMulVec(dt, x)
		got := m.MulVecT(x, nil)
		if !vecApprox(got, want, 1e-9) {
			t.Fatalf("MulVecT mismatch trial %d", trial)
		}
	}
}

func TestMulVecReusesDst(t *testing.T) {
	m := FromDense([][]float64{{1, 2}, {3, 4}})
	dst := []float64{99, 99}
	got := m.MulVec([]float64{1, 1}, dst)
	if &got[0] != &dst[0] {
		t.Error("dst not reused")
	}
	if got[0] != 3 || got[1] != 7 {
		t.Errorf("values %v", got)
	}
	// MulVecT must zero its dst before accumulating.
	dt := []float64{50, 50}
	gt := m.MulVecT([]float64{1, 0}, dt)
	if gt[0] != 1 || gt[1] != 2 {
		t.Errorf("MulVecT with dirty dst = %v", gt)
	}
}

func TestVStack(t *testing.T) {
	a := FromDense([][]float64{{1, 0}, {0, 2}})
	b := FromDense([][]float64{{3, 4}})
	s := VStack(a, b)
	want := [][]float64{{1, 0}, {0, 2}, {3, 4}}
	if !reflect.DeepEqual(s.ToDense(), want) {
		t.Errorf("VStack = %v", s.ToDense())
	}
	if s.NNZ() != 4 {
		t.Errorf("VStack nnz = %d", s.NNZ())
	}
}

func TestVStackEmptyAndMismatch(t *testing.T) {
	e := VStack()
	if e.Rows() != 0 {
		t.Error("empty VStack rows")
	}
	defer func() {
		if recover() == nil {
			t.Error("column mismatch should panic")
		}
	}()
	VStack(FromDense([][]float64{{1}}), FromDense([][]float64{{1, 2}}))
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	b := NewBuilder(2, 2)
	for _, fn := range []func(){
		func() { b.Set(-1, 0, 1) },
		func() { b.Set(0, 2, 1) },
		func() { b.Set(2, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestRowIterationOrdered(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randMatrix(rng, 10, 10, 0.4)
		ok := true
		for i := 0; i < m.Rows(); i++ {
			cols, vals := m.Row(i)
			if len(cols) != len(vals) || len(cols) != m.RowNNZ(i) {
				ok = false
			}
			for k := 1; k < len(cols); k++ {
				if cols[k] <= cols[k-1] {
					ok = false
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
