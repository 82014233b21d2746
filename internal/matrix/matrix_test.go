package matrix

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer expectPanic(t, "negative dimension")
	New(-1, 2)
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape = %dx%d, want 3x2", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v, want 6", m.At(2, 1))
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("shape = %dx%d, want 0x0", m.Rows, m.Cols)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer expectPanic(t, "ragged")
	FromRows([][]float64{{1, 2}, {3}})
}

func TestIdentityMul(t *testing.T) {
	a := Random(7, 7, 1)
	i := Identity(7)
	if d := MaxAbsDiff(Mul(a, i), a); d != 0 {
		t.Fatalf("A·I differs from A by %v", d)
	}
	if d := MaxAbsDiff(Mul(i, a), a); d != 0 {
		t.Fatalf("I·A differs from A by %v", d)
	}
}

func TestAtSetBounds(t *testing.T) {
	m := New(2, 2)
	m.Set(1, 1, 5)
	if m.At(1, 1) != 5 {
		t.Fatalf("At(1,1) = %v, want 5", m.At(1, 1))
	}
	defer expectPanic(t, "out of range")
	m.At(2, 0)
}

func TestCloneIndependent(t *testing.T) {
	a := Random(4, 4, 2)
	b := a.Clone()
	b.Set(0, 0, 42)
	if a.At(0, 0) == 42 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestAddSub(t *testing.T) {
	a := Random(5, 3, 3)
	b := Random(5, 3, 4)
	s := Add(a, b)
	d := Sub(s, b)
	if diff := MaxAbsDiff(d, a); diff != 0 {
		t.Fatalf("(a+b)-b differs from a by %v", diff)
	}
}

func TestAddShapeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "shape mismatch")
	Add(New(2, 2), New(2, 3))
}

func TestAddInPlace(t *testing.T) {
	a := Random(3, 3, 5)
	orig := a.Clone()
	b := Random(3, 3, 6)
	a.AddInPlace(b)
	want := Add(orig, b)
	if diff := MaxAbsDiff(a, want); diff != 0 {
		t.Fatalf("AddInPlace differs by %v", diff)
	}
}

func TestScale(t *testing.T) {
	a := FromRows([][]float64{{1, -2}, {3, 0}})
	s := a.Scale(-2)
	want := FromRows([][]float64{{-2, 4}, {-6, 0}})
	if MaxAbsDiff(s, want) != 0 {
		t.Fatalf("Scale(-2) = %v", s)
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := Mul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if MaxAbsDiff(c, want) != 0 {
		t.Fatalf("Mul = %v, want %v", c, want)
	}
}

func TestMulRectangular(t *testing.T) {
	a := Random(3, 5, 7)
	b := Random(5, 2, 8)
	c := Mul(a, b)
	if c.Rows != 3 || c.Cols != 2 {
		t.Fatalf("shape = %dx%d, want 3x2", c.Rows, c.Cols)
	}
	// Check one entry by hand.
	var want float64
	for k := 0; k < 5; k++ {
		want += a.At(1, k) * b.At(k, 1)
	}
	if math.Abs(c.At(1, 1)-want) > 1e-12 {
		t.Fatalf("c[1,1] = %v, want %v", c.At(1, 1), want)
	}
}

func TestMulDimensionMismatchPanics(t *testing.T) {
	defer expectPanic(t, "inner dimension mismatch")
	Mul(New(2, 3), New(2, 3))
}

func TestMulAddIntoShapePanics(t *testing.T) {
	defer expectPanic(t, "output shape")
	MulAddInto(New(2, 2), New(2, 3), New(3, 3))
}

func TestTranspose(t *testing.T) {
	a := Random(4, 6, 20)
	at := a.Transpose()
	if at.Rows != 6 || at.Cols != 4 {
		t.Fatalf("shape = %dx%d, want 6x4", at.Rows, at.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	if MaxAbsDiff(at.Transpose(), a) != 0 {
		t.Fatal("double transpose is not identity")
	}
}

func TestBlockSetBlockRoundTrip(t *testing.T) {
	a := Random(8, 8, 30)
	b := a.Block(2, 3, 4, 5)
	if b.Rows != 4 || b.Cols != 5 {
		t.Fatalf("block shape %dx%d, want 4x5", b.Rows, b.Cols)
	}
	c := New(8, 8)
	c.SetBlock(2, 3, b)
	if c.At(3, 4) != a.At(3, 4) {
		t.Fatal("SetBlock did not place data at the right offset")
	}
}

func TestBlockOutOfRangePanics(t *testing.T) {
	defer expectPanic(t, "out of range")
	New(4, 4).Block(2, 2, 3, 3)
}

func TestSetBlockOutOfRangePanics(t *testing.T) {
	defer expectPanic(t, "out of range")
	New(4, 4).SetBlock(3, 3, New(2, 2))
}

func TestStringForms(t *testing.T) {
	small := FromRows([][]float64{{1, 2}})
	if !strings.Contains(small.String(), "1") {
		t.Fatalf("small String() = %q", small.String())
	}
	big := New(100, 100)
	if got := big.String(); got != "Dense(100x100)" {
		t.Fatalf("big String() = %q", got)
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(6, 6, 99)
	b := Random(6, 6, 99)
	if MaxAbsDiff(a, b) != 0 {
		t.Fatal("Random with same seed differs")
	}
	c := Random(6, 6, 100)
	if MaxAbsDiff(a, c) == 0 {
		t.Fatal("Random with different seed is identical")
	}
}

func TestRandomRange(t *testing.T) {
	m := Random(20, 20, 7)
	for _, v := range m.Data {
		if v < -1 || v >= 1 {
			t.Fatalf("Random value %v outside [-1,1)", v)
		}
	}
}

func TestRandomIntsRange(t *testing.T) {
	m := RandomInts(20, 20, 7)
	for _, v := range m.Data {
		if v != math.Trunc(v) || v < -4 || v > 4 {
			t.Fatalf("RandomInts value %v outside integer [-4,4]", v)
		}
	}
}

// Property: matrix multiplication distributes over addition.
func TestQuickDistributive(t *testing.T) {
	f := func(seed1, seed2, seed3 uint64) bool {
		a := RandomInts(6, 5, seed1)
		b := RandomInts(5, 4, seed2)
		c := RandomInts(5, 4, seed3)
		left := Mul(a, Add(b, c))
		right := Add(Mul(a, b), Mul(a, c))
		return MaxAbsDiff(left, right) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ.
func TestQuickTransposeProduct(t *testing.T) {
	f := func(seed1, seed2 uint64) bool {
		a := RandomInts(4, 6, seed1)
		b := RandomInts(6, 3, seed2)
		left := Mul(a, b).Transpose()
		right := Mul(b.Transpose(), a.Transpose())
		return MaxAbsDiff(left, right) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: associativity (A·B)·C = A·(B·C) with integer entries.
func TestQuickAssociative(t *testing.T) {
	f := func(seed1, seed2, seed3 uint64) bool {
		a := RandomInts(4, 4, seed1)
		b := RandomInts(4, 4, seed2)
		c := RandomInts(4, 4, seed3)
		return MaxAbsDiff(Mul(Mul(a, b), c), Mul(a, Mul(b, c))) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func expectPanic(t *testing.T, substr string) {
	t.Helper()
	r := recover()
	if r == nil {
		t.Fatalf("expected panic containing %q, got none", substr)
	}
	msg, ok := r.(string)
	if !ok {
		if err, isErr := r.(error); isErr {
			msg = err.Error()
		} else {
			t.Fatalf("panic value %v (%T) is not a string", r, r)
		}
	}
	if !strings.Contains(msg, substr) {
		t.Fatalf("panic %q does not contain %q", msg, substr)
	}
}
