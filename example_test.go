package matscale_test

import (
	"fmt"

	"matscale"
)

// The basic flow: build a machine, multiply, read the virtual-time
// measurements. On a fully connected CM-5 model the GK algorithm's
// time follows the paper's Eq. (18) exactly, so the output is
// deterministic.
func ExampleGK() {
	m := matscale.Hypercube(64, 17, 3) // ts=17, tw=3, 64 processors
	a := matscale.Identity(16)
	b := matscale.Identity(16)
	res, err := matscale.GK(m, a, b)
	if err != nil {
		panic(err)
	}
	fmt.Printf("Tp = %.0f flop units\n", res.Sim.Tp)
	fmt.Printf("product is identity: %v\n", res.C.At(7, 7) == 1 && res.C.At(7, 8) == 0)
	// Output:
	// Tp = 714 flop units
	// product is identity: true

}

// Cannon's algorithm measures exactly Eq. (3):
// n³/p + 2·ts·√p + 2·tw·n²/√p.
func ExampleCannon() {
	m := matscale.Hypercube(16, 17, 3)
	a := matscale.Identity(16)
	res, err := matscale.Cannon(m, a, a)
	if err != nil {
		panic(err)
	}
	// 16³/16 + 2·17·4 + 2·3·16²/4 = 256 + 136 + 384 = 776.
	fmt.Printf("Tp = %.0f\n", res.Sim.Tp)
	// Output:
	// Tp = 776
}

// RunAuto picks the algorithm Section 6's overhead comparison predicts
// to win — here Berntsen's algorithm, because p is far below n^(3/2).
func ExampleRunAuto() {
	m := matscale.NCube2(64)
	a := matscale.RandomMatrix(512, 512, 1)
	b := matscale.RandomMatrix(512, 512, 2)
	_, sel, err := matscale.RunAuto(m, a, b)
	if err != nil {
		panic(err)
	}
	fmt.Println("chose", sel.Name)
	// Output:
	// chose Berntsen
}

// Select consults the region analysis without running anything.
func ExampleSelect() {
	highLatency := matscale.Select(matscale.NCube2(4096), 64)
	lowLatency := matscale.Select(matscale.SIMD(1<<15), 64)
	fmt.Println("ts=150:", highLatency.Name)
	fmt.Println("ts=0.5:", lowLatency.Name)
	// Output:
	// ts=150: GK
	// ts=0.5: DNS
}

// WithBackend swaps the simulation engine under a run. The two
// backends are byte-equivalent — same Tp, same product, same metrics —
// so the events backend is purely a scale upgrade: it simulates
// Cannon's algorithm at a million ranks in seconds, where the
// goroutine backend cannot go.
func ExampleWithBackend() {
	m := matscale.Hypercube(16, 17, 3)
	a := matscale.Identity(16)
	g, err := matscale.Run(matscale.Cannon, m, a, a)
	if err != nil {
		panic(err)
	}
	e, err := matscale.Run(matscale.Cannon, m, a, a,
		matscale.WithBackend(matscale.Events))
	if err != nil {
		panic(err)
	}
	fmt.Printf("goroutines Tp = %.0f\n", g.Sim.Tp)
	fmt.Printf("events     Tp = %.0f\n", e.Sim.Tp)
	// Output:
	// goroutines Tp = 776
	// events     Tp = 776
}

// HostMul is the real (non-simulated) parallel multiply for the host
// machine.
func ExampleHostMul() {
	a := matscale.RandomMatrix(64, 64, 1)
	b := matscale.RandomMatrix(64, 64, 2)
	c, err := matscale.HostMul(a, b, matscale.WithWorkers(4))
	if err != nil {
		panic(err)
	}
	serial := matscale.Mul(a, b)
	diff := 0.0
	for i := range c.Data {
		if d := c.Data[i] - serial.Data[i]; d > diff {
			diff = d
		}
	}
	fmt.Println("max diff:", diff)
	// Output:
	// max diff: 0
}
