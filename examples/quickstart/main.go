// Quickstart: multiply two matrices three ways — serially, with real
// goroutine parallelism on the host, and with the paper's GK algorithm
// on a simulated 64-processor CM-5 — and compare the results.
package main

import (
	"fmt"
	"log"
	"math"

	"matscale"
)

func main() {
	const n = 96
	a := matscale.RandomMatrix(n, n, 1)
	b := matscale.RandomMatrix(n, n, 2)

	// 1. The serial baseline: W = n³ unit operations.
	serial := matscale.Mul(a, b)

	// 2. Real shared-memory parallelism on this machine.
	parallel, err := matscale.HostMul(a, b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("host parallel multiply: max diff vs serial = %g\n", maxDiff(parallel, serial))

	// 3. The GK algorithm (Gupta & Kumar's contribution) on a simulated
	// 64-processor CM-5. The product is computed for real; the virtual
	// clock measures the paper's cost model.
	m := matscale.CM5(64)
	res, err := matscale.GK(m, a, b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GK on %s:\n", m)
	fmt.Printf("  max diff vs serial = %g\n", maxDiff(res.C, serial))
	fmt.Printf("  parallel time Tp   = %.1f flop units\n", res.Sim.Tp)
	fmt.Printf("  speedup            = %.2f on %d processors\n", res.Speedup(), res.P)
	fmt.Printf("  efficiency         = %.3f\n", res.Efficiency())

	// Compare with Cannon's algorithm at the same size: n = 96 is the
	// crossover the paper measured on the real CM-5 (Figure 4).
	cres, err := matscale.Cannon(m, a, b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Cannon efficiency    = %.3f (paper: crossover with GK near n = 96)\n", cres.Efficiency())
}

func maxDiff(x, y *matscale.Matrix) float64 {
	var max float64
	for i := range x.Data {
		if d := math.Abs(x.Data[i] - y.Data[i]); d > max {
			max = d
		}
	}
	return max
}
