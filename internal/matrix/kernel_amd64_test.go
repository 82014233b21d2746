//go:build amd64 && !purego

package matrix

import "testing"

// TestMulAddIntoBitIdenticalSSE2 forces the baseline SSE2 kernel (no
// register tile, 2-wide spans) and re-runs every differential set, so
// both amd64 dispatch targets are proven bit-identical to the naive
// kernel regardless of which one the benchmark host selects.
func TestMulAddIntoBitIdenticalSSE2(t *testing.T) {
	if !useAVX2 {
		t.Skip("host already runs the SSE2 path; covered by the main differential tests")
	}
	useAVX2 = false
	defer func() { useAVX2 = true }()
	for _, set := range kernelSets {
		t.Run(set.name, func(t *testing.T) { checkKernelCases(t, set.cases()) })
	}
}
