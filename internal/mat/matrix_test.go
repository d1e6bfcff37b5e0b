package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// NewFromRows builds a matrix from a slice of equal-length rows.
func NewFromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: empty row set")
	}
	m := New(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != m.cols {
			panic(fmt.Sprintf("mat: ragged rows: row %d has %d columns, want %d", i, len(row), m.cols))
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], row)
	}
	return m
}

// Equal reports whether m and b have the same shape and entries within tol.
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// Add returns m + b.
func (m *Matrix) Add(b *Matrix) *Matrix {
	if m.rows != b.rows || m.cols != b.cols {
		panic(ErrShape)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] += b.data[i]
	}
	return out
}

// subVec returns a - b as a new slice.
func subVec(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// norm2 returns the Euclidean norm of v.
func norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d want 3,4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("fresh matrix not zero at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 3}, {3, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 42.5)
	if got := m.At(1, 2); got != 42.5 {
		t.Fatalf("At(1,2) = %v want 42.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("unrelated cell changed: %v", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	_ = m.At(2, 0)
}

func TestNewFromRowsAndRowCol(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if got := m.RawRow(1); got[0] != 4 || got[2] != 6 {
		t.Fatalf("RawRow(1) = %v", got)
	}
	if got := m.Col(1); got[0] != 2 || got[1] != 5 {
		t.Fatalf("Col(1) = %v", got)
	}
}

func TestNewFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows did not panic")
		}
	}()
	NewFromRows([][]float64{{1, 2}, {3}})
}

func TestRowIsACopy(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Col(0)
	c[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("Col must return a copy")
	}
	raw := m.RawRow(0)
	raw[0] = 99
	if m.At(0, 0) != 99 {
		t.Fatal("RawRow must alias storage")
	}
}

func TestTranspose(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tt := m.T()
	if r, c := tt.Dims(); r != 3 || c != 2 {
		t.Fatalf("T dims = %d,%d", r, c)
	}
	if tt.At(2, 1) != 6 || tt.At(0, 0) != 1 {
		t.Fatalf("bad transpose:\n%v", tt)
	}
}

func TestMulAgainstKnown(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{5, 6}, {7, 8}})
	got := a.Mul(b)
	want := NewFromRows([][]float64{{19, 22}, {43, 50}})
	if !got.Equal(want, 0) {
		t.Fatalf("Mul =\n%vwant\n%v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 5, 5)
	if !a.Mul(Identity(5)).Equal(a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if !Identity(5).Mul(a).Equal(a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 4, 6)
	v := randomVec(rng, 6)
	got := a.MulVec(v)
	vm := New(6, 1)
	for i, x := range v {
		vm.Set(i, 0, x)
	}
	want := a.Mul(vm)
	for i := range got {
		if math.Abs(got[i]-want.At(i, 0)) > 1e-12 {
			t.Fatalf("MulVec[%d] = %v want %v", i, got[i], want.At(i, 0))
		}
	}
}

func TestSelectColumns(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	s := m.SelectColumns([]int{2, 0})
	want := NewFromRows([][]float64{{3, 1}, {6, 4}})
	if !s.Equal(want, 0) {
		t.Fatalf("SelectColumns =\n%v", s)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random matrices.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, 3+rng.Intn(4), 2+rng.Intn(4))
		b := randomMatrix(rng, a.Cols(), 2+rng.Intn(4))
		left := a.Mul(b).T()
		right := b.T().Mul(a.T())
		return left.Equal(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix multiplication distributes over addition.
func TestMulDistributesOverAdd(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		a := randomMatrix(rng, n, n)
		b := randomMatrix(rng, n, n)
		c := randomMatrix(rng, n, n)
		left := a.Mul(b.Add(c))
		right := a.Mul(b).Add(a.Mul(c))
		return left.Equal(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxAbs(t *testing.T) {
	m := NewFromRows([][]float64{{1, -7}, {3, 4}})
	if got := m.MaxAbs(); got != 7 {
		t.Fatalf("MaxAbs = %v want 7", got)
	}
}

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func randomVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
