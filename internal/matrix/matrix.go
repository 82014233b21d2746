// Package matrix provides the dense matrix kernel used by every other
// package in this repository: storage, serial multiplication (the paper's
// W = n³ baseline), block extraction/insertion, and the block-partition
// maps that the parallel algorithms distribute across processors.
//
// The conventions follow the paper (Gupta & Kumar, TR 91-54): matrices
// are square in the experiments but the kernel supports rectangular
// shapes because Berntsen's algorithm and the DNS algorithm multiply
// rectangular sub-blocks internally.
//
// Dimension mismatches are programming errors and panic, following the
// convention of dense linear-algebra kernels.
package matrix

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix of float64 values.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zero matrix with r rows and c columns.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("matrix: ragged rows: row 0 has %d cols, row %d has %d", c, i, len(row)))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

// Set stores v at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// IsSquare reports whether m has the same number of rows and columns.
func (m *Dense) IsSquare() bool { return m.Rows == m.Cols }

// Add returns a + b.
func Add(a, b *Dense) *Dense {
	sameShape("Add", a, b)
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v + b.Data[i]
	}
	return out
}

// Sub returns a - b.
func Sub(a, b *Dense) *Dense {
	sameShape("Sub", a, b)
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v - b.Data[i]
	}
	return out
}

// AddInPlace accumulates b into a.
func (m *Dense) AddInPlace(b *Dense) {
	sameShape("AddInPlace", m, b)
	for i, v := range b.Data {
		m.Data[i] += v
	}
}

// Scale returns s·m as a new matrix.
func (m *Dense) Scale(s float64) *Dense {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = s * v
	}
	return out
}

func sameShape(op string, a, b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Mul returns the product a·b using the conventional O(n³) serial
// algorithm. This is the paper's problem-size baseline: W = n³ basic
// operations (one multiply plus one add counts as a unit).
func Mul(a, b *Dense) *Dense {
	c := New(a.Rows, b.Cols)
	MulAddInto(c, a, b)
	return c
}

// Panel sizes for the tiled kernel. A kcBlock×ncBlock panel of b
// (kcBlock·ncBlock·8 bytes = 256 KiB) stays resident in L2 while the
// rows of a stream against it. On amd64 with AVX2 the rows go four at
// a time through a 4×8 register tile that keeps its block of c in
// registers across the whole kcBlock-deep panel; elsewhere each row
// goes through mulPanel, whose 4-deep unroll keeps each output element
// in a register across four accumulation steps instead of a
// load/store round trip per step.
const (
	ncBlock = 256 // columns of b/c per panel
	kcBlock = 128 // depth of the shared dimension per panel
)

// MulAddInto computes c += a·b with a cache-blocked, register-tiled
// kernel. The result is bit-identical to the naive i-k-j triple loop:
// for every output element c[i,j] the contributions a[i,l]·b[l,j] are
// accumulated in ascending l order, one rounding per step, and
// contributions with a[i,l] == 0 are skipped exactly as the naive
// kernel skips them (the skip is observable when b holds Inf or NaN).
// Tiling only reorders work *across* output elements, never within
// one, so the floating-point result cannot change.
func MulAddInto(c, a, b *Dense) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: Mul inner dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: Mul output shape %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, b.Cols))
	}
	mulPanels(c, a, b, 0, b.Cols)
}

// mulPanels computes columns [j0, j1) of c += a·b, walking the ncBlock
// column panels from j0 and, inside each, the kcBlock depth panels and
// then the rows. It is the one loop nest of the kernel: MulAddInto runs
// it over all columns and each column-panel worker of
// MulAddIntoParallel over the panels it owns, so both run the same
// compiled code over the same panel boundaries. Each whole group of
// four rows first offers the panel to the register tile (mulTile); the
// columns the tile leaves, and the rows past the last whole group, run
// mulPanel row by row.
func mulPanels(c, a, b *Dense, j0, j1 int) {
	n, m, k := a.Rows, b.Cols, a.Cols
	for jj := j0; jj < j1; jj += ncBlock {
		jEnd := min(jj+ncBlock, j1)
		for ll := 0; ll < k; ll += kcBlock {
			lEnd := min(ll+kcBlock, k)
			for i := 0; i < n; i += 4 {
				rows, j := min(4, n-i), jj
				if rows == 4 {
					j = mulTile(c, a, b, i, ll, lEnd, jj, jEnd)
				}
				if j == jEnd {
					continue
				}
				for r := i; r < i+rows; r++ {
					mulPanel(c.Data[r*m:(r+1)*m], a.Data[r*k:(r+1)*k], b.Data, ll, lEnd, j, jEnd, m)
				}
			}
		}
	}
}

// mulPanel accumulates crow[jj:jEnd] += Σ arow[l]·b[l, jj:jEnd] for
// l in [ll, lEnd), four depth steps at a time. The fused path runs only
// when all four a-values are nonzero so the zero-skip semantics of the
// scalar loop are preserved bit for bit; mixed groups and the depth
// remainder fall back to the one-step loop.
func mulPanel(crow, arow, bdata []float64, ll, lEnd, jj, jEnd, m int) {
	l := ll
	for ; l+4 <= lEnd; l += 4 {
		av0, av1, av2, av3 := arow[l], arow[l+1], arow[l+2], arow[l+3]
		if av0 == 0 || av1 == 0 || av2 == 0 || av3 == 0 {
			mulStrip(crow, arow, bdata, l, l+4, jj, jEnd, m)
			continue
		}
		b0 := bdata[l*m+jj : l*m+jEnd]
		b1 := bdata[(l+1)*m+jj : (l+1)*m+jEnd]
		b2 := bdata[(l+2)*m+jj : (l+2)*m+jEnd]
		b3 := bdata[(l+3)*m+jj : (l+3)*m+jEnd]
		mulSpan4(crow[jj:jEnd], b0, b1, b2, b3, av0, av1, av2, av3)
	}
	if l < lEnd {
		mulStrip(crow, arow, bdata, l, lEnd, jj, jEnd, m)
	}
}

// mulStrip is the one-depth-step-at-a-time fallback; its body is the
// inner two loops of the test oracle mulAddIntoNaive (kernel_test.go)
// restricted to one column panel. The sum is written product first:
// when both operands are NaN the result keeps the first source's
// payload, and the compiler keeps a dead first operand as the first
// source, so this form compiles to the product-first add of the amd64
// kernels wherever it is inlined. Written cs[j] += av*brow[j], it
// compiled to either order depending on the inlining site.
func mulStrip(crow, arow, bdata []float64, l0, l1, jj, jEnd, m int) {
	for l := l0; l < l1; l++ {
		av := arow[l]
		if av == 0 {
			continue
		}
		brow := bdata[l*m+jj : l*m+jEnd]
		cs := crow[jj:jEnd]
		for j := range cs {
			cs[j] = av*brow[j] + cs[j]
		}
	}
}

// Transpose returns mᵀ.
func (m *Dense) Transpose() *Dense {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// Block returns a copy of the h×w sub-block whose top-left corner is
// (r0, c0).
func (m *Dense) Block(r0, c0, h, w int) *Dense {
	if r0 < 0 || c0 < 0 || h < 0 || w < 0 || r0+h > m.Rows || c0+w > m.Cols {
		panic(fmt.Sprintf("matrix: Block(%d,%d,%d,%d) out of range %dx%d", r0, c0, h, w, m.Rows, m.Cols))
	}
	out := New(h, w)
	for i := 0; i < h; i++ {
		copy(out.Data[i*w:(i+1)*w], m.Data[(r0+i)*m.Cols+c0:(r0+i)*m.Cols+c0+w])
	}
	return out
}

// SetBlock copies b into m with its top-left corner at (r0, c0).
func (m *Dense) SetBlock(r0, c0 int, b *Dense) {
	if r0 < 0 || c0 < 0 || r0+b.Rows > m.Rows || c0+b.Cols > m.Cols {
		panic(fmt.Sprintf("matrix: SetBlock(%d,%d) of %dx%d out of range %dx%d", r0, c0, b.Rows, b.Cols, m.Rows, m.Cols))
	}
	for i := 0; i < b.Rows; i++ {
		copy(m.Data[(r0+i)*m.Cols+c0:(r0+i)*m.Cols+c0+b.Cols], b.Data[i*b.Cols:(i+1)*b.Cols])
	}
}

// MaxAbsDiff returns the largest absolute element-wise difference
// between a and b.
func MaxAbsDiff(a, b *Dense) float64 {
	sameShape("MaxAbsDiff", a, b)
	var max float64
	for i := range a.Data {
		d := math.Abs(a.Data[i] - b.Data[i])
		if d > max {
			max = d
		}
	}
	return max
}

// String renders small matrices for debugging; large matrices are
// summarized by shape.
func (m *Dense) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Dense(%dx%d)", m.Rows, m.Cols)
	}
	var sb strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%8.4g", m.Data[i*m.Cols+j])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
