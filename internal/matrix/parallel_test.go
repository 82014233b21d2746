package matrix

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// parallelWorkerGrid is the worker-count grid the differential suite
// proves byte-identity over; NumCPU is appended at runtime.
var parallelWorkerGrid = []int{1, 2, 3, 4, 7, 8}

// parallelBitIdentical runs the parallel kernel at the given worker
// count against the serial tiled kernel (itself pinned bit-for-bit to
// the naive loop by TestMulAddIntoBitIdentical*) and fails on the
// first output element whose bits differ.
func parallelBitIdentical(t *testing.T, a, b *Dense, workers int) {
	t.Helper()
	got := New(a.Rows, b.Cols)
	want := New(a.Rows, b.Cols)
	MulAddIntoParallel(got, a, b, workers)
	MulAddInto(want, a, b)
	for i := range want.Data {
		g, w := math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i])
		if g != w {
			t.Fatalf("%dx%d · %dx%d workers=%d: element %d: parallel %x (%v) != serial %x (%v)",
				a.Rows, a.Cols, b.Rows, b.Cols, workers, i, g, got.Data[i], w, want.Data[i])
		}
	}
}

// TestMulAddIntoParallelBitIdenticalSquare proves the ownership
// contract on the square differential grid at every worker count:
// the row-band fallback dominates here because the outputs are
// narrower than workers·ncBlock.
func TestMulAddIntoParallelBitIdenticalSquare(t *testing.T) {
	for _, n := range kernelSizes {
		a := Random(n, n, uint64(n)*2+1)
		b := Random(n, n, uint64(n)*2+2)
		for _, w := range parallelWorkerGrid {
			parallelBitIdentical(t, a, b, w)
		}
	}
}

// TestMulAddIntoParallelBitIdenticalWide drives the column-panel mode:
// outputs wide enough that every worker owns at least one full
// ncBlock panel, with widths straddling the panel boundaries.
func TestMulAddIntoParallelBitIdenticalWide(t *testing.T) {
	shapes := [][3]int{
		{3, 7, 512}, {5, 129, 513}, {2, 64, 767}, {9, 31, 1024},
		{4, 128, 1025}, {1, 300, 1100}, {17, 5, 2048}, {6, 133, 2100},
	}
	for _, s := range shapes {
		a := Random(s[0], s[1], 21)
		b := Random(s[1], s[2], 23)
		for _, w := range []int{1, 2, 3, 4, 8} {
			parallelBitIdentical(t, a, b, w)
		}
	}
}

// TestMulAddIntoParallelSpecialValues exercises the zero-skip
// semantics under parallelism: zeros in a gating Inf/NaN rows of b,
// plus denormals, must propagate exactly as in the serial kernel on
// both the row-band and column-panel paths.
func TestMulAddIntoParallelSpecialValues(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, s := range [][3]int{{64, 64, 64}, {7, 129, 520}, {3, 128, 1030}} {
		a := Random(s[0], s[1], 201)
		b := Random(s[1], s[2], 203)
		for l := 0; l < s[1]; l++ {
			a.Set(0, l, 0)
			if l%4 == 2 {
				a.Set(s[0]/2, l, 0)
			}
		}
		b.Set(2%s[1], 0, inf)
		b.Set(2%s[1], s[2]-1, nan)
		b.Set(0, s[2]/2, 5e-324) // denormal
		if s[1] > 6 {
			b.Set(5, 1, inf)
			b.Set(6, 2, nan)
		}
		for _, w := range []int{2, 4, 8} {
			parallelBitIdentical(t, a, b, w)
		}
	}
}

// TestMulAddIntoParallelAccumulates verifies c += a·b semantics: the
// parallel kernel accumulates into existing output exactly as the
// serial kernel does, on both partition axes.
func TestMulAddIntoParallelAccumulates(t *testing.T) {
	for _, s := range [][3]int{{67, 67, 67}, {5, 40, 700}} {
		a := Random(s[0], s[1], 1)
		b := Random(s[1], s[2], 2)
		got := Random(s[0], s[2], 3)
		want := got.Clone()
		MulAddIntoParallel(got, a, b, 4)
		MulAddInto(want, a, b)
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("accumulation differs at element %d: %v != %v", i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestMulAddIntoParallelDefaultWorkers covers workers ≤ 0 (all CPUs).
func TestMulAddIntoParallelDefaultWorkers(t *testing.T) {
	a := Random(65, 65, 7)
	b := Random(65, 65, 8)
	parallelBitIdentical(t, a, b, 0)
	parallelBitIdentical(t, a, b, -3)
}

// TestMulAddIntoParallelShapePanics pins the panic contract to the
// serial kernel's.
func TestMulAddIntoParallelShapePanics(t *testing.T) {
	t.Run("inner", func(t *testing.T) {
		defer expectPanic(t, "inner dimension mismatch")
		MulAddIntoParallel(New(2, 3), New(2, 4), New(5, 3), 2)
	})
	t.Run("output", func(t *testing.T) {
		defer expectPanic(t, "output shape")
		MulAddIntoParallel(New(3, 3), New(2, 4), New(4, 3), 2)
	})
}

// TestKernelWorkerEquivalence is the `make kernel-equivalence` entry
// point, mirroring sweep-determinism: the parallel kernel must be
// byte-identical at workers ∈ {1, 2, 4, NumCPU} under the race
// detector, over shapes covering both partition axes and the serial
// degradation.
func TestKernelWorkerEquivalence(t *testing.T) {
	grid := append([]int{1, 2, 4}, runtime.NumCPU())
	for _, s := range [][3]int{
		{1, 1, 1}, {31, 17, 67}, {128, 128, 128}, {257, 64, 255},
		{5, 129, 520}, {3, 33, 1040}, {300, 2, 3},
	} {
		a := Random(s[0], s[1], uint64(s[0]*1000+s[2]))
		b := Random(s[1], s[2], uint64(s[1]*1000+s[0]))
		for _, w := range grid {
			parallelBitIdentical(t, a, b, w)
		}
	}
}

// BenchmarkMulAddIntoParallel is the n × workers grid the bench job
// archives in BENCH_pr.json: the same memory-bandwidth accounting as
// the serial kernel benchmarks, so ns/op is directly comparable to
// BenchmarkMulAddIntoTiled at workers=1.
func BenchmarkMulAddIntoParallel(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
				benchMulKernel(b, n, func(c, x, y *Dense) { MulAddIntoParallel(c, x, y, w) })
			})
		}
	}
}
