package main

import (
	"bytes"
	"embed"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"time"

	"matscale"
)

// Workload inputs. Every input is a pure function of the seed; the
// program under test receives only the generated specs and schedule.

// manyrankSpec is the sweep-manyrank grid: every sweep formulation on
// both machine families at the paper's large processor counts. Blocks
// are at most 16×16, so host time goes to the simulation engine and
// the collectives, not to the kernel.
func manyrankSpec(seed uint64) *matscale.SweepSpec {
	return &matscale.SweepSpec{
		Algorithms: matscale.SweepAlgorithms(),
		Machines:   []string{"ncube2", "cm5"},
		Ps:         []int{64, 256, 512, 1024},
		Ns:         []int{64, 128},
		Seed:       seed,
	}
}

// largeblockSpec is the sweep-largeblock grid: few ranks and large
// blocks (64 to 384 on a side), so host time goes to the matmul kernel
// and payload copies, not to the engine.
func largeblockSpec(seed uint64) *matscale.SweepSpec {
	return &matscale.SweepSpec{
		Algorithms: []string{"simple", "cannon", "fox", "berntsen", "gk"},
		Machines:   []string{"ncube2"},
		Ps:         []int{8, 16, 64},
		Ns:         []int{512, 768},
		Seed:       seed,
	}
}

// hostMulN is the side of the HostMul operands every workload
// multiplies.
const hostMulN = 1024

// Service workload shape.
const (
	// serviceRate is the offered load in jobs/s: about half the
	// capacity measured on a 2-core Xeon VM (README.md, "service-mixed").
	serviceRate = 120.0
	// poolSpecs is the number of shared specs; poolShare of the jobs
	// draw from them and become cache hits.
	poolSpecs = 4
	// poolShare is below one half on purpose: hits finish in about
	// 1 ms and misses in about 7 ms, and with exactly half of each the
	// median latency falls in the gap between the two clusters, where
	// it swung by 13% between seeds.
	poolShare = 0.4
	// suspendEvery: one job in suspendEvery is suspended after its
	// first progress event and resumed.
	suspendEvery = 10
)

// serviceSpec is one job spec, shaped like matscale-loadtest's
// workloadSpec: a small two-algorithm sweep on a custom hypercube
// whose startup cost ts tells the specs apart.
func serviceSpec(ts float64, seed uint64) *matscale.SweepSpec {
	return &matscale.SweepSpec{
		Algorithms: []string{"cannon", "gk"},
		Machines:   []string{"custom"},
		Ts:         ts,
		Tw:         3,
		Ps:         []int{16, 64},
		Ns:         []int{16, 32},
		Seed:       seed,
	}
}

// arrival is one scheduled job of the open-loop generator.
type arrival struct {
	Due     time.Duration // offset from the start of the window
	Spec    int           // index into serviceInputs.Specs
	Suspend bool          // suspend after the first progress event, then resume
}

// serviceInputs is the seeded input of one service-mixed run.
type serviceInputs struct {
	Specs    []*matscale.SweepSpec
	Arrivals []arrival
}

// serviceSchedule generates the job specs and the arrival schedule for
// a window of the given length. The arrival count is fixed at
// serviceRate·seconds and the times are seeded uniform draws (a
// Poisson process conditioned on its count), so the offered load does
// not vary between seeds. A poolShare of the jobs use a pool spec; the
// others each get their own spec, and one job in suspendEvery — all of
// them unique, so that a suspension has cells left to stop — is
// suspended and resumed.
func serviceSchedule(seed uint64, seconds int) serviceInputs {
	rng := rand.New(rand.NewPCG(seed, 0x6d617473))
	n := int(serviceRate * float64(seconds))
	window := time.Duration(seconds) * time.Second

	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Int64N(int64(window)))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })

	// Job kinds: the first poolShare·n of a seeded permutation draw
	// from the pool, the rest are unique; the first n/suspendEvery
	// unique jobs in permutation order are suspended.
	perm := rng.Perm(n)
	in := serviceInputs{Arrivals: make([]arrival, n)}
	// The pool has ts = 17..20; unique spec k gets ts = 17 + k plus a
	// seeded fraction, a cost the pool never uses.
	frac := float64(rng.IntN(1000)) / 1000
	for i := 0; i < poolSpecs; i++ {
		in.Specs = append(in.Specs, serviceSpec(17+float64(i), seed))
	}
	pooled, suspends := int(poolShare*float64(n)), n/suspendEvery
	for rank, job := range perm {
		a := arrival{Due: dues[job]}
		if rank < pooled {
			a.Spec = rng.IntN(poolSpecs)
		} else {
			a.Spec = len(in.Specs)
			in.Specs = append(in.Specs, serviceSpec(17+float64(a.Spec)+frac, seed))
			if rank-pooled < suspends {
				a.Suspend = true
			}
		}
		in.Arrivals[job] = a
	}
	return in
}

//go:embed golden/*.csv
var goldenFS embed.FS

// goldenCSV returns the stored per-cell CSV of a sweep workload.
// Virtual time depends only on (algorithm, machine, n, p), never on
// the matrix seed, so one file holds for every seed.
func goldenCSV(workload string) ([]byte, error) {
	return goldenFS.ReadFile("golden/" + workload + ".csv")
}

// csvMismatches compares a sweep's CSV with the golden CSV line by
// line and returns the number of data rows that differ (missing and
// extra rows included) and the first difference.
func csvMismatches(got, want []byte) (int, string) {
	g := strings.Split(strings.TrimSuffix(string(got), "\n"), "\n")
	w := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	bad, first := 0, ""
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			bad++
			if first == "" {
				first = fmt.Sprintf("line %d: got %q, want %q", i+1, gl, wl)
			}
		}
	}
	return bad, first
}

// sweepCSV renders a sweep result's CSV.
func sweepCSV(res *matscale.SweepResult) []byte {
	var buf bytes.Buffer
	res.WriteCSV(&buf) // bytes.Buffer never errors
	return buf.Bytes()
}
