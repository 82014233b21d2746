package matrix

import (
	"fmt"
	"math"
	"testing"
)

// kernelSizes is the differential grid: degenerate shapes, primes that
// never divide the panel sizes, exact panel multiples, off-by-one
// around every tile boundary, and sizes larger than one panel.
var kernelSizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 17, 31, 63, 64, 65, 67, 127, 128, 129, 255, 256, 257, 300}

// mulAddIntoNaive is the original i-k-j triple loop, kept as the
// test oracle for the differential bit-identity tests and
// benchmarks. MulAddInto must agree with it bit for bit on every input,
// NaN payloads included. The update is written product first (see
// mulStrip), which pins the oracle's own compiled operand order: b
// first in the multiply, the product first in the add.
func mulAddIntoNaive(c, a, b *Dense) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: Mul inner dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: Mul output shape %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, b.Cols))
	}
	n, m, k := a.Rows, b.Cols, a.Cols
	for i := 0; i < n; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*m : (i+1)*m]
		for l := 0; l < k; l++ {
			av := arow[l]
			if av == 0 {
				continue
			}
			brow := b.Data[l*m : (l+1)*m]
			for j := 0; j < m; j++ {
				crow[j] = av*brow[j] + crow[j]
			}
		}
	}
}

// kernelCase is one differential input: c += a·b starting from c0, or
// from a zero output when c0 is nil.
type kernelCase struct {
	a, b, c0 *Dense
}

// kernelSets names every differential set. The TestMulAddIntoBitIdentical*
// tests run each set on the host's kernel, and on amd64
// TestMulAddIntoBitIdenticalSSE2 re-runs all of them with the SSE2
// kernel forced, so both dispatch targets face every case.
var kernelSets = []struct {
	name  string
	cases func() []kernelCase
}{
	{"Square", squareCases},
	{"Rectangular", rectangularCases},
	{"SpecialValues", specialValueCases},
	{"NaNPayloads", nanPayloadCases},
	{"TileEdges", tileEdgeCases},
}

// checkKernelCases runs MulAddInto and the naive loop on every case and
// fails on the first output element whose bits differ.
func checkKernelCases(t *testing.T, cases []kernelCase) {
	t.Helper()
	for _, kc := range cases {
		a, b := kc.a, kc.b
		got := New(a.Rows, b.Cols)
		if kc.c0 != nil {
			got = kc.c0.Clone()
		}
		want := got.Clone()
		MulAddInto(got, a, b)
		mulAddIntoNaive(want, a, b)
		for i := range want.Data {
			g, w := math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i])
			if g != w {
				t.Fatalf("%dx%d · %dx%d: element %d: tiled %x (%v) != naive %x (%v)",
					a.Rows, a.Cols, b.Rows, b.Cols, i, g, got.Data[i], w, want.Data[i])
			}
		}
	}
}

// squareCases covers square sizes including 1, primes, and non-tile
// multiples.
func squareCases() []kernelCase {
	var cases []kernelCase
	for _, n := range kernelSizes {
		cases = append(cases, kernelCase{a: Random(n, n, uint64(n)*2+1), b: Random(n, n, uint64(n)*2+2)})
	}
	return cases
}

// rectangularCases covers rectangular shapes with inner dimensions
// that straddle the depth-panel and unroll boundaries.
func rectangularCases() []kernelCase {
	shapes := [][3]int{
		{1, 1, 1}, {1, 300, 1}, {300, 1, 300}, {3, 129, 5},
		{17, 4, 31}, {64, 127, 65}, {130, 128, 126}, {5, 257, 255},
		{2, 3, 259}, {259, 2, 3},
	}
	var cases []kernelCase
	for _, s := range shapes {
		cases = append(cases, kernelCase{a: Random(s[0], s[1], 11), b: Random(s[1], s[2], 13)})
	}
	return cases
}

// specialValueCases exercises the zero-skip semantics: a[i,l] == 0
// must suppress the contribution even when the matching b row holds
// Inf or NaN (0·Inf would otherwise inject NaN), and nonzero
// contributions must propagate Inf/NaN identically.
func specialValueCases() []kernelCase {
	inf, nan := math.Inf(1), math.NaN()
	var cases []kernelCase
	for _, n := range []int{4, 7, 64, 129} {
		a := Random(n, n, 101)
		b := Random(n, n, 103)
		// Sprinkle structured zeros into a: full zero rows, zero
		// diagonal band, and zeros placed to split the 4-deep groups.
		for l := 0; l < n; l++ {
			a.Set(0, l, 0)
			if l%4 == 2 {
				a.Set(n/2, l, 0)
			}
			if l%7 == 0 {
				a.Set(n-1, l, 0)
			}
		}
		// Poison b rows that zeroed a-entries point at, plus some live rows.
		b.Set(2%n, 0, inf)
		b.Set(2%n, n-1, nan)
		if n > 4 {
			b.Set(5, 1, inf)
			b.Set(6, 2, nan)
		}
		cases = append(cases, kernelCase{a: a, b: b})
	}
	return cases
}

// NaN payloads the NaN cases plant: two quiet NaNs, a signaling NaN
// (the multiply quiets it), and a negative quiet NaN for a.
var (
	nanC    = math.Float64frombits(0x7ff800000000d00d)
	nanB    = math.Float64frombits(0x7ff8000000000abc)
	nanSig  = math.Float64frombits(0x7ff0000000000bad)
	nanA    = math.Float64frombits(0xfff80000000a0a0a)
	payload = []float64{nanB, nanSig}
)

// nanPayloadCases makes NaNs with different payloads meet in one
// element. When two NaNs meet, x86 keeps the first source's payload,
// so these cases pin the operand order of every kernel path to the
// compiled naive loop's: a NaN already in c meeting a NaN product; a
// nonzero NaN in a multiplying a NaN in b; and the default NaN of
// Inf − Inf meeting a payload NaN later in the depth order.
func nanPayloadCases() []kernelCase {
	var cases []kernelCase
	for _, n := range []int{8, 16, 67, 130, 200, 260} {
		// NaN pre-loaded in c against NaN products from b.
		a := Random(n, n, uint64(n)+301)
		b := Random(n, n, uint64(n)+302)
		c0 := Random(n, n, uint64(n)+303)
		for i := range c0.Data {
			if i%5 == 0 {
				c0.Data[i] = nanC
			}
		}
		for j := 0; j < n; j++ {
			l := (j * 7) % n
			b.Set(l, j, payload[j%2])
		}
		cases = append(cases, kernelCase{a: a, b: b, c0: c0})

		// A nonzero NaN in a meets the NaN row of b it multiplies, so
		// both operands of the multiply are NaN; in a later column it
		// meets finite b, and its product meets the NaN already in c.
		// One NaN row in b keeps a later NaN product from overwriting
		// the collision's payload; one case per position of that row
		// in the 4-deep unroll.
		for d := 0; d < 4 && d < n; d++ {
			a = Random(n, n, uint64(n+d)+311)
			b = Random(n, n, uint64(n+d)+312)
			l0 := (2*n/3)&^3 + d
			for j := 0; j < n; j++ {
				b.Set(l0, j, payload[j%2])
			}
			for i := 0; i < n; i += 3 {
				a.Set(i, l0, nanA)
			}
			for i := 1; i < n; i += 5 {
				a.Set(i, n-1, nanA)
			}
			cases = append(cases, kernelCase{a: a, b: b})
		}

		// +Inf then −Inf products make the default NaN in c, which a
		// payload NaN product meets at a later depth step.
		a = Random(n, n, uint64(n)+321)
		b = Random(n, n, uint64(n)+322)
		for i := range a.Data {
			a.Data[i] = math.Abs(a.Data[i]) + 0.5
		}
		for j := 0; j < n; j++ {
			l := j % (n - 3)
			b.Set(l, j, math.Inf(1))
			b.Set(l+1, j, math.Inf(-1))
			b.Set(l+2+j%2, j, payload[j%2])
		}
		cases = append(cases, kernelCase{a: a, b: b, c0: Random(n, n, uint64(n)+323)})
	}
	return cases
}

// tileEdgeCases covers the edges of the 4×8 register tile and its
// hand-off to mulPanel: rows ≡ 1, 2, 3 (mod 4), columns ≡ 1…7 (mod 8)
// inside one column panel and across the 256-column panel boundary,
// depths straddling the 128-deep panel, and zeros that send exactly
// one 4-row group, in one depth panel, to mulPanel while b holds Inf
// and NaN in the rows those zeros skip. Every case accumulates into a
// nonzero c.
func tileEdgeCases() []kernelCase {
	shapes := [][3]int{{4, 1, 8}, {8, 128, 16}, {12, 130, 512}}
	for r := 1; r <= 7; r++ {
		rows := 4 + r%4
		shapes = append(shapes,
			[3]int{rows, 1 + r, 8 + r},           // one strip plus r columns
			[3]int{rows + 4, 127 + r%3, 248 + r}, // 31 strips plus r, one panel
			[3]int{rows, 129, 256 + r},           // r columns in the second panel
			[3]int{rows + 8, 128, 264 + r},       // one strip plus r, second panel
		)
	}
	var cases []kernelCase
	for _, s := range shapes {
		seed := uint64(s[0]*100000 + s[1]*1000 + s[2])
		cases = append(cases, kernelCase{
			a:  Random(s[0], s[1], seed),
			b:  Random(s[1], s[2], seed+1),
			c0: Random(s[0], s[2], seed+2),
		})
	}

	// Zeros in one row of one group: row 5 of rows 4..7 in the first
	// depth panel, row 9 of rows 8..11 in the second, and a negative
	// zero in row 2 of rows 0..3, each facing Inf or NaN in b.
	a := Random(14, 260, 401)
	b := Random(260, 270, 402)
	a.Set(5, 37, 0)
	a.Set(9, 129, 0)
	a.Set(2, 100, math.Copysign(0, -1))
	for j := 0; j < 270; j += 3 {
		b.Set(37, j, math.Inf(1))
		b.Set(129, j, math.NaN())
		b.Set(100, j, math.Inf(-1))
	}
	cases = append(cases, kernelCase{a: a, b: b, c0: Random(14, 270, 403)})
	return cases
}

// TestMulAddIntoBitIdenticalSquare proves the determinism contract: the
// tiled kernel reproduces the naive kernel bit for bit across square
// sizes including 1, primes, and non-tile multiples.
func TestMulAddIntoBitIdenticalSquare(t *testing.T) { checkKernelCases(t, squareCases()) }

// TestMulAddIntoBitIdenticalRectangular covers rectangular shapes.
func TestMulAddIntoBitIdenticalRectangular(t *testing.T) { checkKernelCases(t, rectangularCases()) }

// TestMulAddIntoBitIdenticalSpecialValues covers the zero-skip
// semantics against Inf and NaN in b.
func TestMulAddIntoBitIdenticalSpecialValues(t *testing.T) {
	checkKernelCases(t, specialValueCases())
}

// TestMulAddIntoBitIdenticalNaNPayloads covers colliding NaN payloads.
func TestMulAddIntoBitIdenticalNaNPayloads(t *testing.T) { checkKernelCases(t, nanPayloadCases()) }

// TestMulAddIntoBitIdenticalTileEdges covers the register tile's edges.
func TestMulAddIntoBitIdenticalTileEdges(t *testing.T) { checkKernelCases(t, tileEdgeCases()) }

// TestMulAddIntoAccumulates verifies c += a·b semantics (the output is
// accumulated into, not overwritten) identically in both kernels.
func TestMulAddIntoAccumulates(t *testing.T) {
	n := 67
	checkKernelCases(t, []kernelCase{{a: Random(n, n, 1), b: Random(n, n, 2), c0: Random(n, n, 3)}})
}

// TestMulAddIntoNoAllocs pins the kernel allocation-free: thousands of
// rank goroutines call it at once in the goroutine engine.
func TestMulAddIntoNoAllocs(t *testing.T) {
	a, b, c := Random(64, 64, 1), Random(64, 64, 2), New(64, 64)
	if n := testing.AllocsPerRun(10, func() { MulAddInto(c, a, b) }); n != 0 {
		t.Fatalf("MulAddInto on 64×64 allocates %v times per call, want 0", n)
	}
}

// benchMulKernel benchmarks one kernel at one square size and reports
// its rate in GFLOP/s (2n³ flops per multiply).
func benchMulKernel(b *testing.B, n int, kernel func(c, a, b *Dense)) {
	x := Random(n, n, 42)
	y := Random(n, n, 43)
	c := New(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(c, x, y)
	}
	flops := 2 * float64(n) * float64(n) * float64(n) * float64(b.N)
	b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// The benchmark grid: tiled vs naive at the block sides the benchmark
// probes (matscalebench's matrix.gflops.b16/b64/b128/b192) and the
// per-rank blocks of the formulations, up to whole-problem sizes.
func BenchmarkMulAddIntoTiled(b *testing.B) {
	for _, n := range []int{16, 64, 128, 192, 256, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchMulKernel(b, n, MulAddInto) })
	}
}

func BenchmarkMulAddIntoNaive(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchMulKernel(b, n, mulAddIntoNaive) })
	}
}
