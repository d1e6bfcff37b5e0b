// Package mat provides the dense linear algebra kernels used by the
// TRACON statistical learning stack: matrices, vectors, Householder QR
// least squares, Cholesky factorization, and a Jacobi symmetric
// eigendecomposition (used for PCA).
//
// The package is deliberately small and allocation-conscious: matrices are
// stored in a single row-major backing slice, and the factorizations
// used in model fitting reuse scratch buffers where it matters.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64.
type Matrix struct {
	rows, cols int
	data       []float64
}

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("mat: dimension mismatch")

// ErrSingular is returned when a factorization encounters a (numerically)
// singular matrix.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// New returns an r×c zero matrix.
func New(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", r, c))
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewFromSlice returns an r×c matrix backed by a copy of data, which must
// have length r*c and be laid out row-major.
func NewFromSlice(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), r, c))
	}
	m := New(r, c)
	copy(m.data, data)
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Dims returns (rows, cols).
func (m *Matrix) Dims() (int, int) { return m.rows, m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// RawRow returns row i as a slice aliasing the matrix storage. Mutating the
// returned slice mutates the matrix.
func (m *Matrix) RawRow(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range", i))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: column %d out of range", j))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetRow copies v into row i.
func (m *Matrix) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(ErrShape)
	}
	copy(m.data[i*m.cols:(i+1)*m.cols], v)
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	return NewFromSlice(m.rows, m.cols, m.data)
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(ErrShape)
	}
	out := New(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		mrow := m.data[i*m.cols : (i+1)*m.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += mv * bv
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m·v.
func (m *Matrix) MulVec(v []float64) []float64 {
	if m.cols != len(v) {
		panic(ErrShape)
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		s := 0.0
		for j, rv := range row {
			s += rv * v[j]
		}
		out[i] = s
	}
	return out
}

// SelectColumns returns a new matrix containing the listed columns of m, in
// the given order. Used by stepwise model selection to build candidate
// design matrices.
func (m *Matrix) SelectColumns(cols []int) *Matrix {
	out := New(m.rows, len(cols))
	for i := 0; i < m.rows; i++ {
		src := m.data[i*m.cols : (i+1)*m.cols]
		dst := out.data[i*out.cols : (i+1)*out.cols]
		for k, c := range cols {
			if c < 0 || c >= m.cols {
				panic(fmt.Sprintf("mat: column %d out of range %d", c, m.cols))
			}
			dst[k] = src[c]
		}
	}
	return out
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%10.4g", m.data[i*m.cols+j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// MaxAbs returns the largest absolute entry of m.
func (m *Matrix) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}
