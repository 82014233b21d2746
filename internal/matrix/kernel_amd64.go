//go:build amd64 && !purego

package matrix

// The amd64 micro-kernels vectorize across output columns only: each
// output element still receives its contributions in ascending depth
// order with a separate multiply and a separate add per step
// (MULPD/ADDPD, never FMA), with the compiled scalar loop's operand
// order (b first in the multiply, the product first in the add). That
// is exactly the rounding sequence, NaN payloads included, of the
// scalar kernel on amd64. CPU dispatch therefore cannot change a
// single result bit — it only changes how many elements advance per
// instruction.
//
// With AVX2, whole groups of four rows run mulTile4x8AVX2, which keeps
// a 4×8 block of c in registers across the whole depth panel: each
// step reads two vectors of b and four broadcasts of a for sixteen
// vector operations, where mulSpan4 moves c through memory every four
// steps of one row. Without AVX2 every row runs mulPanel on the 2-wide
// SSE2 span kernel.

// useAVX2 selects the AVX2 kernels (the 4×8 tile and the 4-wide span
// kernel) when the CPU and OS support it; otherwise the baseline
// 2-wide SSE2 kernel runs (SSE2 is architecturally guaranteed on
// amd64).
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports AVX2 availability, including OS XMM/YMM state
// support (OSXSAVE + XCR0). Implemented in kernel_amd64.s.
func cpuHasAVX2() bool

// mulSpan4SSE2 is the 2-wide baseline span kernel. Implemented in
// kernel_amd64.s. Slices must all share the same length.
//
//go:noescape
func mulSpan4SSE2(cs, b0, b1, b2, b3 []float64, av0, av1, av2, av3 float64)

// mulSpan4AVX2 is the 4-wide span kernel. Implemented in
// kernel_amd64.s. Slices must all share the same length.
//
//go:noescape
func mulSpan4AVX2(cs, b0, b1, b2, b3 []float64, av0, av1, av2, av3 float64)

// mulTile4x8AVX2 accumulates strips 4×8 blocks of c += a·b over depth
// steps, with c at the block's top-left element, a at the group's
// first depth element and b at the panel's first element (row strides
// m, k and m). Implemented in kernel_amd64.s; it reads and writes no
// memory outside the slices mulTile passes it.
//
//go:noescape
func mulTile4x8AVX2(c, a, b []float64, m, k, depth, strips int)

func mulSpan4(cs, b0, b1, b2, b3 []float64, av0, av1, av2, av3 float64) {
	if useAVX2 {
		mulSpan4AVX2(cs, b0, b1, b2, b3, av0, av1, av2, av3)
		return
	}
	mulSpan4SSE2(cs, b0, b1, b2, b3, av0, av1, av2, av3)
}

// mulTile runs the 4×8 register tile for rows [i, i+4) over the depth
// panel [ll, lEnd) and the whole 8-column strips of [jj, jEnd), and
// returns the first column it did not cover (jj when it covered none).
// The tile runs only when none of the four rows' a values in the depth
// panel is zero: the tile cannot skip a contribution, so a group with
// a zero is left to mulPanel, whose zero-skip matches the naive loop.
func mulTile(c, a, b *Dense, i, ll, lEnd, jj, jEnd int) int {
	strips := (jEnd - jj) / 8
	if !useAVX2 || strips == 0 {
		return jj
	}
	m, k := b.Cols, a.Cols
	for r := i; r < i+4; r++ {
		for _, v := range a.Data[r*k+ll : r*k+lEnd] {
			if v == 0 {
				return jj
			}
		}
	}
	jTile := jj + 8*strips
	mulTile4x8AVX2(c.Data[i*m+jj:(i+3)*m+jTile], a.Data[i*k+ll:(i+3)*k+lEnd],
		b.Data[ll*m+jj:(lEnd-1)*m+jTile], m, k, lEnd-ll, strips)
	return jTile
}
