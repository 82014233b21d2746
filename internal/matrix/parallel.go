package matrix

import (
	"fmt"
	"runtime"
	"sync"
)

// MulAddIntoParallel computes c += a·b on workers host goroutines
// (workers ≤ 0 uses GOMAXPROCS) and is bit-identical to MulAddInto —
// and therefore to the naive serial loop — at every worker count.
//
// The output is partitioned by PlanOwnership: ncBlock-aligned column
// panels when the output is wide enough for every worker to own at
// least one, whole-row bands otherwise, serial execution when neither
// yields more than one non-empty slab. Each slab is written by exactly
// one worker, and the only shared state is the read-only inputs plus
// the disjoint output slabs — no atomics, no locks in the hot loop,
// one WaitGroup join at the end.
//
// The bit-identity argument is deliberately strict: every worker runs
// the serial kernel's own compiled panel loop (mulPanels, with the
// register tile and mulPanel under it) over its slab, not a
// re-implementation of it, and slabs are panel-aligned so even each
// element's choice between tile, vector body and tail is the one the
// serial traversal produces. Identical machine code over identical
// values gives identical bits — including NaN payloads, whose
// propagation through MULSD/ADDPD depends on operand order and
// therefore is NOT preserved between differently compiled but
// mathematically equal loops. Partitioning then reorders work only
// across output elements, never within one, so the result cannot
// depend on the worker count. Each worker's live panel of b (at most
// kcBlock·ncBlock·8 bytes = 256 KiB) is private to it by ownership
// and stays L2-resident exactly as in the serial kernel.
func MulAddIntoParallel(c, a, b *Dense, workers int) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: Mul inner dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: Mul output shape %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, b.Cols))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if a.Cols == 0 {
		return // k == 0: nothing to accumulate, spawn nothing
	}
	plan := PlanOwnership(a.Rows, b.Cols, workers)
	if plan.Serial() {
		MulAddInto(c, a, b)
		return
	}
	var wg sync.WaitGroup
	for _, s := range plan.Spans[1:] {
		wg.Add(1)
		go func(s OwnershipSpan) {
			defer wg.Done()
			mulOwnedSpan(c, a, b, plan.Axis, s)
		}(s)
	}
	// The calling goroutine works span 0 instead of idling at the join.
	mulOwnedSpan(c, a, b, plan.Axis, plan.Spans[0])
	wg.Wait()
}

// mulOwnedSpan runs one worker's slab of the output. A column slab is
// a whole number of ncBlock-aligned panels (PlanOwnership aligns j0
// and j1), so mulPanels walks exactly the panel boundaries the serial
// traversal produces for them, against b in place; workers pass
// overlapping whole-row slice headers but write only the columns they
// own.
func mulOwnedSpan(c, a, b *Dense, axis OwnershipAxis, s OwnershipSpan) {
	if axis == OwnRows {
		mulRowBand(c, a, b, s.Start, s.End)
		return
	}
	mulPanels(c, a, b, s.Start, s.End)
}

// mulRowBand computes rows [r0, r1) of c += a·b by viewing the band as
// a zero-copy sub-matrix and delegating to the serial tiled kernel.
// Row bands partition c and a by whole rows, so the views alias
// disjoint memory, and within the band every element runs exactly the
// serial kernel's code over exactly the serial kernel's panel grid.
func mulRowBand(c, a, b *Dense, r0, r1 int) {
	m, k := b.Cols, a.Cols
	cBand := &Dense{Rows: r1 - r0, Cols: m, Data: c.Data[r0*m : r1*m]}
	aBand := &Dense{Rows: r1 - r0, Cols: k, Data: a.Data[r0*k : r1*k]}
	MulAddInto(cBand, aBand, b)
}
