package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"matscale"
	"matscale/internal/matrix"
)

// Every workload makes HostMul calls, so that every workload reports
// hostmul_gflops. The sweeps interleave them with their grids;
// service-mixed, whose jobs they would disturb, makes them between the
// slices of its window, while the server is idle. Spreading the calls
// over the run keeps one moment's machine state from setting the
// median: the machine's speed drifts over seconds, and calls made in
// one burst all see the same moment.
var hostMulPerGrid = map[string]int{wlManyrank: 6, wlLargeblock: 2}

// serviceSegments is the number of slices service-mixed cuts its
// window into, and serviceHostMuls the number of HostMul calls it makes
// before each slice and after the last.
const (
	serviceSegments = 6
	serviceHostMuls = 4
)

// hostMulCopies is the number of separately allocated copies of the
// operand pair the calls rotate through. The kernel's speed depends on
// where its operands land in physical memory (on a 2-core Xeon VM one
// placement ran 1.6 times slower than another in the same process), so
// a run samples several placements rather than being stuck with one.
const hostMulCopies = 4

// hostMulInputs holds copies of a seeded HostMul operand pair and
// their serial reference product.
type hostMulInputs struct {
	a, b []*matscale.Matrix
	ref  *matscale.Matrix
	next int
}

func newHostMulInputs(seed uint64) *hostMulInputs {
	a := matscale.RandomMatrix(hostMulN, hostMulN, seed)
	b := matscale.RandomMatrix(hostMulN, hostMulN, seed+1)
	h := &hostMulInputs{ref: matscale.Mul(a, b)}
	for i := 0; i < hostMulCopies; i++ {
		h.a = append(h.a, a.Clone())
		h.b = append(h.b, b.Clone())
	}
	return h
}

// hostMul makes one timed HostMul call on the next operand copy and
// checks the product against the serial reference. It returns the
// call's duration in seconds, or false when it failed.
func (h *hostMulInputs) hostMul(t *tally, opts ...matscale.Option) (float64, bool) {
	a, b := h.a[h.next], h.b[h.next]
	h.next = (h.next + 1) % hostMulCopies
	t.attempted++
	t0 := time.Now()
	c, err := matscale.HostMul(a, b, opts...)
	d := time.Since(t0).Seconds()
	if err != nil {
		t.fail(1, "HostMul: %v", err)
		return 0, false
	}
	if diff := matrix.MaxAbsDiff(c, h.ref); diff != 0 {
		t.fail(1, "HostMul differs from Mul by %g", diff)
		return 0, false
	}
	return d, true
}

// hostMulPhase makes n HostMul calls, each from a collected heap.
func (h *hostMulInputs) hostMulPhase(t *tally, n int) []float64 {
	var times []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		if s, ok := h.hostMul(t); ok {
			times = append(times, s)
		}
	}
	return times
}

// hostMulGflops converts HostMul call times to GFLOP/s at the median.
func hostMulGflops(times []float64) float64 {
	if len(times) == 0 {
		return 0
	}
	return 2 * float64(hostMulN) * float64(hostMulN) * float64(hostMulN) / Median(times) / 1e9
}

// sweepState is the set-up of a sweep workload.
type sweepState struct {
	spec   *matscale.SweepSpec
	golden []byte
	hm     *hostMulInputs
}

func specFor(workload string, seed uint64) *matscale.SweepSpec {
	if workload == wlManyrank {
		return manyrankSpec(seed)
	}
	return largeblockSpec(seed)
}

// setupSweep builds a sweep workload's inputs, loads its golden CSV
// and warms the library up with one small slice of the grid and one
// HostMul call.
func setupSweep(cfg runConfig) (*sweepState, error) {
	st := &sweepState{spec: specFor(cfg.workload, cfg.seed)}
	var err error
	if st.golden, err = goldenCSV(cfg.workload); err != nil {
		return nil, fmt.Errorf("loading golden CSV: %w", err)
	}
	st.hm = newHostMulInputs(cfg.seed)
	warm := *st.spec
	warm.Machines, warm.Ps, warm.Ns = warm.Machines[:1], warm.Ps[:1], warm.Ns[:1]
	if _, err := matscale.Sweep(&warm); err != nil {
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	var t tally
	if _, ok := st.hm.hostMul(&t); !ok {
		return nil, fmt.Errorf("warm-up HostMul: %s", t.first)
	}
	return st, nil
}

// sweepGrid makes one timed Sweep call over the workload's grid and
// checks every cell against the golden CSV, which has a header and one
// row per cell. It returns the call's duration and the result (nil on
// error).
func sweepGrid(spec *matscale.SweepSpec, golden []byte, t *tally) (time.Duration, *matscale.SweepResult) {
	cells := bytes.Count(golden, []byte("\n")) - 1
	t.attempted += cells
	t0 := time.Now()
	res, err := matscale.Sweep(spec)
	d := time.Since(t0)
	if err != nil {
		t.fail(cells, "Sweep: %v", err)
		return d, nil
	}
	if bad, first := csvMismatches(sweepCSV(res), golden); bad > 0 {
		t.fail(bad, "sweep CSV differs from golden: %s", first)
	}
	return d, res
}

// sweepEndToEnd measures a sweep workload: whole-grid Sweep calls at
// the library defaults, each followed by the workload's HostMul calls,
// until the window is spent. Every grid and call starts from a
// collected heap, so that one operation's garbage does not land on the
// next one's clock.
func sweepEndToEnd(cfg runConfig, t *tally) (metricSet, map[string]Summary, error) {
	st, setups, err := timeSetups(func() (*sweepState, error) { return setupSweep(cfg) }, func(*sweepState) {})
	if err != nil {
		return nil, nil, err
	}
	var grids, muls []float64
	ran := 0
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for {
		runtime.GC()
		d, res := sweepGrid(st.spec, st.golden, t)
		if res != nil {
			grids = append(grids, d.Seconds())
			ran = res.Ran
		}
		muls = append(muls, st.hm.hostMulPhase(t, hostMulPerGrid[cfg.workload])...)
		if !time.Now().Before(deadline) {
			break
		}
	}
	ms := metricSet{"setup_s": Median(setups), "hostmul_gflops": hostMulGflops(muls)}
	if len(grids) > 0 {
		ms["cells_per_s"] = float64(ran) / Median(grids)
		ms["jobs_per_s"] = 1 / Median(grids)
	}
	return ms, map[string]Summary{"job_s": Summarize(grids), "hostmul_s": Summarize(muls), "setup_s": Summarize(setups)}, nil
}

// tailOf returns the latency reported as a job p95: the 95th
// percentile when at least tailBeyond samples lie beyond it, else the
// highest percentile that has that many beyond it, else the median.
func tailOf(xs []float64) float64 {
	s := Summarize(xs)
	switch {
	case s.TailPct >= 95:
		return PercentileOf(xs, 95)
	case s.TailPct > 0:
		return s.Tail
	}
	return s.Median
}
